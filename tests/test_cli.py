"""Tests of the command-line front end: exit codes, file formats,
reproducibility, and manifest integrity."""

import argparse
import contextlib
import dataclasses
import hashlib
import io
import json
import os
import re
import stat
import subprocess
import sys
import tempfile
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import cvteleport
import cvteleport.cli as cli
from cvteleport.cli import (
    MAX_SWEEP_POINTS,
    NEGATIVE_FLOAT,
    main,
    verify_manifest,
    write_csv,
)
from cvteleport.config import (
    _KEYS,
    ConfigError,
    RunConfig,
    load_config,
    parse_config_text,
)
from cvteleport.gaussian import make_vacuum, quad_statistics
from cvteleport.spectral import BAND_EDGE_THZ, MAX_GRID_POINTS
from cvteleport.teleporter import (
    MIN_N_SQ,
    analytic_noise_budget,
    calibrate_unity_gain,
    run_teleport,
)
from cvteleport.timetrace import DT_PS, MAX_DURATION_NS, MAX_WINDOW_PS, max_traces

SWEEP_HEADER = ["value", "n_out", "n_out_db", "fidelity_vacuum",
                "circuit_n_out", "circuit_n_out_db"]

QUANTUM_CFG = """
[teleporter]
n_sq = 0.178
eta_bell = 0.9
eta_meas = 0.9
ff_gain_db = 60.0
regime = quantum

[source]
baseband_bandwidth_ghz = 16.0
filter_shape = gaussian

[spectrum]
n_sq_center = 0.164399
grid_points = 201

[timetrace]
duration_ns = 2.0
n_traces = 8
"""


REFERENCE_CFG = str(Path(__file__).resolve().parents[1] / "configs"
                    / "reference_quantum.cfg")


@pytest.fixture
def cfg_file(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text(QUANTUM_CFG)
    return str(path)


def never(*args, **kwargs):
    raise AssertionError("ran past a size bound")


# modules no command but validate may load: scipy is a test extra, fractions
# once built the CSV tables, numpy.polynomial comes only with the Fock
# oracle's Gauss-Hermite nodes, and simulate_traces imports its helper's
# executor pool (with logging) only when it starts one, as the import would
# cost a few ms of every start-up; configparser is only the reference that
# tests hold the config reader to
NOT_LOADED_BY_CLI = ("scipy", "fractions", "cvteleport.fock", "cvteleport.opa",
                     "cvteleport.validate", "numpy.polynomial",
                     "concurrent.futures", "logging", "configparser")


@pytest.fixture(scope="module")
def cli_modules():
    """``sys.modules`` of a fresh interpreter after importing the CLI and
    loading the reference config."""
    src = Path(cvteleport.__file__).resolve().parents[1]
    code = ("import sys, cvteleport.cli as cli\n"
            f"cli.load_config({REFERENCE_CFG!r})\n"
            "print(*sys.modules)")
    result = subprocess.run([sys.executable, "-c", code], capture_output=True,
                            text=True, env=dict(os.environ, PYTHONPATH=str(src)),
                            timeout=120)
    assert result.returncode == 0, result.stderr
    return set(result.stdout.split())


@pytest.mark.parametrize("module", NOT_LOADED_BY_CLI)
def test_cli_import_does_not_load(cli_modules, module):
    assert module not in cli_modules, f"import cvteleport.cli loaded {module}"


class TestConfigParsing:
    def test_defaults_fill_missing_sections(self):
        cfg = parse_config_text("[teleporter]\nn_sq = 0.5\n")
        assert cfg.teleporter.n_sq == 0.5
        assert cfg.teleporter.eta_bell == 0.9
        assert cfg.source.baseband_bandwidth_ghz == 55.0
        assert cfg.spectrum.n_sq_center == 0.5  # follows teleporter by default
        assert cfg.timetrace.n_traces == 128

    def test_unknown_key_fails_closed(self):
        with pytest.raises(ConfigError, match="unknown key teleporter.n_sqq"):
            parse_config_text("[teleporter]\nn_sqq = 0.5\n")

    def test_unknown_section_fails_closed(self):
        with pytest.raises(ConfigError, match="unknown section"):
            parse_config_text("[detector]\nqe = 0.3\n")

    def test_out_of_range_names_field(self):
        with pytest.raises(ConfigError, match="teleporter.eta_bell"):
            parse_config_text("[teleporter]\neta_bell = 0\n")

    def test_garbage_rejected(self):
        with pytest.raises(ConfigError):
            parse_config_text("not an ini file at all {{{")

    def test_missing_file(self):
        with pytest.raises(ConfigError):
            load_config("/nonexistent/path.cfg")

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf", "NaN", "-Infinity"])
    @pytest.mark.parametrize("section,key", [
        ("teleporter", "ff_gain_db"), ("teleporter", "n_sq"),
        ("spectrum", "excess_amplitude_db"),
        ("timetrace", "duration_ns")])
    def test_non_finite_rejected(self, section, key, value):
        with pytest.raises(ConfigError, match=f"{section}.{key}: must be finite"):
            parse_config_text(f"[{section}]\n{key} = {value}\n")

    def test_enob_bounded(self):
        assert parse_config_text("[timetrace]\nenob = 52\n").timetrace.enob == 52
        with pytest.raises(ConfigError, match="timetrace.enob: must be at most 52"):
            parse_config_text("[timetrace]\nenob = 53\n")

    def test_size_edges_accepted(self):
        # parsing only: nothing the bounds guard is allocated
        cfg = parse_config_text(f"[spectrum]\ngrid_points = {MAX_GRID_POINTS}\n"
                                f"[timetrace]\nduration_ns = {MAX_DURATION_NS}\n"
                                "n_traces = 1\n")
        assert cfg.spectrum.grid_points == MAX_GRID_POINTS == 2 ** 20
        assert max_traces(cfg.timetrace.duration_ns) == 1
        cfg = parse_config_text(f"[timetrace]\nn_traces = {max_traces(8.0)}\n")
        assert cfg.timetrace.n_traces == 4096  # 2 ** 23 samples of 2048
        cfg = parse_config_text(f"[timetrace]\nwindow_ps = {MAX_WINDOW_PS}\n")
        assert cfg.timetrace.window_ps == MAX_WINDOW_PS == 4000.0  # 1024 samples
        cfg = parse_config_text("[timetrace]\nwindow_ps = 3.90625\n")
        assert cfg.timetrace.window_ps == DT_PS == 3.90625  # one sample

    @pytest.mark.parametrize("text,field", [
        (f"[spectrum]\ngrid_points = {MAX_GRID_POINTS + 1}\n",
         "spectrum.grid_points"),
        ("[spectrum]\ngrid_points = 100000000000\n", "spectrum.grid_points"),
        (f"[timetrace]\nduration_ns = {MAX_DURATION_NS + 0.01}\nn_traces = 1\n",
         "timetrace.duration_ns"),
        ("[timetrace]\nduration_ns = 1e300\n", "timetrace.duration_ns"),
        ("[timetrace]\nn_traces = 4097\n", "timetrace.n_traces"),
        ("[timetrace]\nduration_ns = 80\nn_traces = 410\n", "timetrace.n_traces"),
        ("[timetrace]\nn_traces = 100000000000\n", "timetrace.n_traces"),
        (f"[timetrace]\nwindow_ps = {MAX_WINDOW_PS + 0.01}\n", "timetrace.window_ps"),
        ("[timetrace]\nwindow_ps = 16000\n", "timetrace.window_ps")])
    def test_sizes_above_bound_name_field(self, text, field):
        with pytest.raises(ConfigError, match=f"{field}: must be at most"):
            parse_config_text(text)

    # a window shorter than one sample period leaves some window empty; at
    # 1e-9 ps the window tiling would ask for 58 TiB
    @pytest.mark.parametrize("value", ["1e-9", "3.9"])
    def test_window_below_one_sample_names_field(self, value):
        with pytest.raises(ConfigError, match="timetrace.window_ps: must be "
                                              "at least 3.90625"):
            parse_config_text(f"[timetrace]\nwindow_ps = {value}\n")

    @pytest.mark.parametrize("value", ["4000", "-4000", "1e308", "-1e308",
                                       "200", "120.001", "3.4"])
    def test_ff_gain_db_out_of_range_names_field(self, value):
        # the unity-gain range at eta_bell = 0.9 is (3.47, 120] dB
        with pytest.raises(ConfigError, match="teleporter.ff_gain_db"):
            parse_config_text(f"[teleporter]\nff_gain_db = {value}\n")

    def test_ff_gain_db_range_edges_accepted(self):
        for value in ("3.5", "120"):
            cfg = parse_config_text(f"[teleporter]\nff_gain_db = {value}\n")
            assert cfg.teleporter.tap_reflectivity == calibrate_unity_gain(
                float(value), 0.9)

    @pytest.mark.parametrize("field", ["teleporter.n_sq", "spectrum.n_sq_center"])
    @pytest.mark.parametrize("value", ["5e-324", "1e-7", "9.99e-7", "0"])
    def test_n_sq_below_floor_names_field(self, field, value):
        section, key = field.split(".")
        with pytest.raises(ConfigError, match=f"{field}: must be at least 1e-06"):
            parse_config_text(f"[{section}]\n{key} = {value}\n")

    def test_n_sq_floor_accepted(self):
        cfg = parse_config_text(f"[teleporter]\nn_sq = {MIN_N_SQ}\n"
                                f"[spectrum]\nn_sq_center = {MIN_N_SQ}\n")
        assert cfg.teleporter.n_sq == cfg.spectrum.n_sq_center == MIN_N_SQ == 1e-6

    def test_explicit_tap_out_of_range_names_field(self):
        # the tap is derived, so no value of the key is in range
        with pytest.raises(ConfigError, match="unknown key "
                                              "teleporter.tap_reflectivity"):
            parse_config_text("[teleporter]\ntap_reflectivity = 1.0\n")

    @pytest.mark.parametrize("value", ["4000", "3.0"])
    def test_ff_gain_db_range_checked_with_explicit_tap(self, value):
        # above MAX_FF_GAIN_DB, and below the 3.47 dB floor at eta_bell = 0.9
        with pytest.raises(ConfigError, match="teleporter.ff_gain_db"):
            parse_config_text(f"[teleporter]\nff_gain_db = {value}\n")

    @pytest.mark.parametrize("value", ["1.0000001", "2"])
    def test_band_edge_above_modeled_band_names_field(self, value):
        with pytest.raises(ConfigError, match="spectrum.band_edge_thz: must be "
                                              "at most 1.0"):
            parse_config_text(f"[spectrum]\nband_edge_thz = {value}\n")
        cfg = parse_config_text(f"[spectrum]\nband_edge_thz = {BAND_EDGE_THZ}\n")
        assert cfg.spectrum.band_edge_thz == BAND_EDGE_THZ == 1.0


def test_readme_lists_every_key_with_its_default():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    rows = re.findall(r"^\| `(\w+)\.(\w+)` \| `([^`]*)` \|", readme, re.M)
    assert rows == [(section, key, default) for section, keys in _KEYS.items()
                    for key, (default, _) in keys.items()]


KNOWN_KEYS = [(section, key) for section, keys in _KEYS.items()
              for key in keys]
KEY_VALUES = st.one_of(
    st.floats().map(repr),
    st.integers().map(str),
    st.sampled_from(["auto", "flat", "quantum", "classical", "gaussian",
                     "raised_cosine", "", "1e308", "-1e308", "nan"]),
    st.text(max_size=12),
)


def config_text(values: dict) -> str:
    """Config text setting each (section, key) of ``values``."""
    sections = {}
    for (section, key), value in values.items():
        sections.setdefault(section, []).append(f"{key} = {value}")
    return "".join(f"[{section}]\n" + "\n".join(lines) + "\n"
                   for section, lines in sections.items())


def parses_or_config_error(text):
    try:
        cfg = parse_config_text(text)
    except ConfigError:
        return
    assert isinstance(cfg, RunConfig)


class TestConfigParsingProperty:
    """Any text parses to a RunConfig or raises ConfigError; parsing only."""

    @given(st.one_of(st.text(), st.builds("[{}]\n{}\n".format,
                                          st.sampled_from(sorted(_KEYS)),
                                          st.text())))
    @settings(max_examples=300, deadline=None)
    def test_any_text(self, text):
        parses_or_config_error(text)

    @given(st.dictionaries(st.sampled_from(KNOWN_KEYS), KEY_VALUES))
    @settings(max_examples=400, deadline=None)
    def test_any_values_of_known_keys(self, values):
        parses_or_config_error(config_text(values))


# Every command, any config: each known key set to an extreme value gives
# either a run that verifies and holds only finite numbers, or one named
# config error and no run directory; never an internal error.
EXTREMES = ["0", "-0.0", "5e-324", "1e-310", "1e-300", "1e-7", "1e300",
            repr(sys.float_info.max), "1", "-1", "2", "53", "2000", "nan",
            "-inf", "auto", "flat", "raised_cosine", "classical", "x"]
# timetrace stays at 2 ns x 4 traces unless the example sets those keys
SMALL_TRACES = {("timetrace", "duration_ns"): "2", ("timetrace", "n_traces"): "4"}
# an example asking for more trace time than this skips timetrace
MAX_TRACE_NS = 256.0
SWEEPS = [("n_sq", "0.1", "1"), ("eta_bell", "0.5", "1"),
          ("eta_meas", "0.1", "1"), ("ff_gain_db", "20", "80")]


def trace_ns(text: str) -> float:
    try:
        tt = parse_config_text(text).timetrace
    except ConfigError:
        return 0.0  # refused before any trace is made
    return tt.duration_ns * tt.n_traces


def numbers(path: Path):
    """Every number in a run file."""
    if path.suffix == ".npy":
        return np.load(path).ravel()
    if path.suffix == ".csv":
        rows = path.read_text().splitlines()[1:]
        return [float(v) for row in rows for v in row.split(",")]
    found = []

    def walk(node):
        if isinstance(node, dict):
            node = list(node.values())
        if isinstance(node, list):
            for item in node:
                walk(item)
        elif isinstance(node, (int, float)) and not isinstance(node, bool):
            found.append(node)

    walk(json.loads(path.read_text()))
    return found


def run_quietly(argv):
    """``main(argv)``'s exit code and stderr."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = main(argv)
    return rc, err.getvalue()


def key_values(keys, max_size):
    return st.dictionaries(st.sampled_from(keys), st.sampled_from(EXTREMES),
                           max_size=max_size)


# up to three keys of one section, whose keys act together, and one more key
CONFIGS = st.builds(
    lambda within, anywhere: {**within, **anywhere},
    st.sampled_from(list(_KEYS)).flatmap(
        lambda section: key_values([(section, key) for key in _KEYS[section]], 3)),
    key_values(KNOWN_KEYS, 1)).filter(bool)


@given(CONFIGS, st.sampled_from(SWEEPS))
@settings(max_examples=200, deadline=None, derandomize=True)
def test_every_command_runs_or_refuses(values, sweep):
    text = config_text({**SMALL_TRACES, **values})
    param, lo, hi = sweep
    commands = [["budget"], ["spectrum"],
                ["sweep", "--param", param, "--range", lo, hi, "--points", "5"]]
    if trace_ns(text) <= MAX_TRACE_NS:
        commands.append(["timetrace"])
    with tempfile.TemporaryDirectory() as tmp:
        cfg = Path(tmp) / "run.cfg"
        cfg.write_text(text)
        for i, command in enumerate(commands):
            out_dir = Path(tmp) / str(i)
            rc, err = run_quietly([command[0], str(cfg), *command[1:],
                           "--out-dir", str(out_dir)])
            where = f"{command[0]} with\n{text}"
            assert rc in (0, 2), f"exit {rc} ({err.strip()}) from {where}"
            if rc == 2:
                assert err.startswith("config error: ") and err.count("\n") == 1, \
                    f"{err!r} from {where}"
                assert not out_dir.exists(), where
                continue
            assert verify_manifest(out_dir), where
            for path in out_dir.rglob("*.*"):
                assert np.isfinite(numbers(path)).all(), \
                    f"non-finite number in {path.name} from {where}"


class TestBudgetCommand:
    def test_reference_values_printed(self, cfg_file, tmp_path, capsys):
        rc = main(["budget", cfg_file, "--out-dir", str(tmp_path / "b")])
        assert rc == 0
        out = capsys.readouterr().out
        assert "1.5204" in out and "+1.820 dB" in out
        assert "3.0000" in out and "+4.771 dB" in out
        payload = json.loads((tmp_path / "b" / "budget.json").read_text())
        assert payload["quantum"]["n_out"] == pytest.approx(1.5204)
        assert payload["classical"]["n_out"] == pytest.approx(3.0)

    def test_everything_ideal_classical_limit(self, tmp_path, capsys):
        cfg = tmp_path / "ideal.cfg"
        cfg.write_text("[teleporter]\nn_sq = 1.0\neta_bell = 1.0\n"
                       "eta_meas = 1.0\nregime = classical\n")
        rc = main(["budget", str(cfg), "--out-dir", str(tmp_path / "b")])
        assert rc == 0
        payload = json.loads((tmp_path / "b" / "budget.json").read_text())
        assert payload["classical"]["n_out"] == 3.0

    def test_non_utf8_config_exit_2(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_bytes(b"[teleporter]\nn_sq = 0.5\xff\n")
        rc = main(["budget", str(cfg), "--out-dir", str(tmp_path / "b")])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith(f"config error: cannot read config file {cfg}: ")
        assert "codec can't decode byte 0xff" in err
        assert not (tmp_path / "b").exists()

    def test_bad_config_exit_2(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("[teleporter]\neta_bell = 0\n")
        rc = main(["budget", str(cfg), "--out-dir", str(tmp_path / "b")])
        assert rc == 2
        assert "eta_bell" in capsys.readouterr().err

    def test_non_finite_config_exit_2(self, tmp_path, capsys):
        cfg = tmp_path / "nan.cfg"
        cfg.write_text("[teleporter]\nff_gain_db = nan\n")
        rc = main(["budget", str(cfg), "--out-dir", str(tmp_path / "b")])
        assert rc == 2
        assert "teleporter.ff_gain_db" in capsys.readouterr().err

    @pytest.mark.parametrize("value", ["4000", "-4000", "1e308", "200"])
    def test_ff_gain_db_out_of_range_exit_2(self, tmp_path, capsys, value):
        cfg = tmp_path / "gain.cfg"
        cfg.write_text(f"[teleporter]\nff_gain_db = {value}\n")
        rc = main(["budget", str(cfg), "--out-dir", str(tmp_path / "b")])
        assert rc == 2
        assert "teleporter.ff_gain_db" in capsys.readouterr().err
        assert not (tmp_path / "b").exists()

    @pytest.mark.parametrize("command", [["budget"], ["spectrum"],
                                         ["sweep", "--param", "n_sq",
                                          "--range", "0.1", "1.0"]])
    @pytest.mark.parametrize("value", ["4000", "3.0"])
    def test_explicit_tap_gain_out_of_range_exit_2(self, tmp_path, capsys,
                                                   command, value):
        cfg = tmp_path / "gain.cfg"
        cfg.write_text(f"[teleporter]\nff_gain_db = {value}\n")
        rc = main([command[0], str(cfg)] + command[1:]
                  + ["--out-dir", str(tmp_path / "b")])
        assert rc == 2
        assert "teleporter.ff_gain_db" in capsys.readouterr().err
        assert not (tmp_path / "b").exists()

    # the tap is derived from the gain and eta_bell; the config cannot set it
    @pytest.mark.parametrize("command", [["budget"], ["spectrum"],
                                         ["timetrace", "--traces", "1"],
                                         ["sweep", "--param", "n_sq",
                                          "--range", "0.1", "1.0"]])
    @pytest.mark.parametrize("tap", ["auto", "0.001"])
    def test_tap_key_refused_exit_2(self, tmp_path, capsys, command, tap):
        cfg = tmp_path / "tap.cfg"
        cfg.write_text(QUANTUM_CFG.replace(
            "regime = quantum", f"regime = quantum\ntap_reflectivity = {tap}"))
        rc = main([command[0], str(cfg)] + command[1:]
                  + ["--out-dir", str(tmp_path / "b")])
        assert rc == 2
        assert capsys.readouterr().err == (
            "config error: unknown key teleporter.tap_reflectivity\n")
        assert not (tmp_path / "b").exists()

    def test_env_var_sets_default_out_root(self, cfg_file, tmp_path,
                                           monkeypatch):
        root = tmp_path / "my-runs"
        monkeypatch.setenv("CVTELEPORT_OUT_ROOT", str(root))
        assert main(["budget", cfg_file]) == 0
        run_dirs = list(root.glob("*-budget"))
        assert len(run_dirs) == 1
        assert (run_dirs[0] / "manifest.json").exists()


class TestSpectrumCommand:
    def test_report_contents(self, cfg_file, tmp_path, capsys):
        out = tmp_path / "s"
        rc = main(["spectrum", cfg_file, "--seed", "7", "--out-dir", str(out)])
        assert rc == 0
        report = json.loads((out / "report.json").read_text())
        assert report["schema"] == 1
        assert report["f_int"] == pytest.approx(0.784, abs=0.01)
        data = np.genfromtxt(out / "spectrum.csv", delimiter=",", names=True)
        assert set(data.dtype.names) == {"omega_thz", "vx_db", "vp_db"}
        assert data.shape[0] == 201

    def test_byte_reproducible(self, cfg_file, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        assert main(["spectrum", cfg_file, "--seed", "3", "--out-dir", str(a)]) == 0
        assert main(["spectrum", cfg_file, "--seed", "3", "--out-dir", str(b)]) == 0
        assert (a / "spectrum.csv").read_bytes() == (b / "spectrum.csv").read_bytes()
        assert (a / "report.json").read_bytes() == (b / "report.json").read_bytes()

    def test_seed_changes_output(self, cfg_file, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        main(["spectrum", cfg_file, "--seed", "3", "--out-dir", str(a)])
        main(["spectrum", cfg_file, "--seed", "4", "--out-dir", str(b)])
        assert (a / "spectrum.csv").read_bytes() != (b / "spectrum.csv").read_bytes()

    def test_manifest_verifies(self, cfg_file, tmp_path):
        out = tmp_path / "s"
        main(["spectrum", cfg_file, "--seed", "1", "--out-dir", str(out)])
        assert verify_manifest(out)
        (out / "spectrum.csv").write_text("tampered\n")
        assert not verify_manifest(out)

    def test_missing_manifest_does_not_verify(self, tmp_path):
        assert not verify_manifest(tmp_path)

    @pytest.mark.parametrize("content", [
        b"{not json", b"{}", b"[]", b"\xff\xfe", b'{"outputs": null}',
        b'{"outputs": ["spectrum.csv", "report.json"]}'])
    def test_malformed_manifest_does_not_verify(self, cfg_file, tmp_path,
                                                content):
        out = tmp_path / "s"
        main(["spectrum", cfg_file, "--seed", "1", "--out-dir", str(out)])
        (out / "manifest.json").write_bytes(content)
        assert not verify_manifest(out)

    @pytest.mark.parametrize("command", ["spectrum", "timetrace"])
    def test_negative_seed_exit_2(self, cfg_file, tmp_path, capsys, command):
        rc = main([command, cfg_file, "--seed", "-1", "--out-dir",
                   str(tmp_path / "o")])
        assert rc == 2
        assert "--seed: must be non-negative" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    # under -W error the grid warning of synthesize_spectrum was an internal
    # error (exit 4); the config now refuses the edge before any work
    @pytest.mark.parametrize("edge", ["1.0000001", "2"])
    def test_band_edge_above_modeled_band_exit_2(self, tmp_path, capsys,
                                                 monkeypatch, edge):
        import cvteleport.cli as cli

        monkeypatch.setattr(cli, "synthesize_spectrum", never)
        cfg = tmp_path / "edge.cfg"
        cfg.write_text(f"[spectrum]\nband_edge_thz = {edge}\n")
        rc = main(["spectrum", str(cfg), "--out-dir", str(tmp_path / "s")])
        assert rc == 2
        assert "spectrum.band_edge_thz: must be at most 1.0" in \
            capsys.readouterr().err
        assert not (tmp_path / "s").exists()

    # the grid of a subnormal band edge repeats 0: exit 4 before the grid
    # was built inside the command's config-error guard
    def test_subnormal_band_edge_exit_2(self, tmp_path, capsys):
        cfg = tmp_path / "edge.cfg"
        cfg.write_text("[spectrum]\nband_edge_thz = 5e-324\n")
        rc = main(["spectrum", str(cfg), "--out-dir", str(tmp_path / "s")])
        assert rc == 2
        assert capsys.readouterr().err == (
            "config error: spectrum: omega bins must be strictly increasing\n")
        assert not (tmp_path / "s").exists()

    # a subnormal excess cutoff overflowed omega / cutoff (a warning, exit 4
    # under -W error); raw variances above about 1e154 overflowed the
    # fidelity's (1 + vx)(1 + vp); each gives its limit
    @pytest.mark.parametrize("excess,f_raw", [
        ("excess_cutoff_thz = 1e-310\nexcess_amplitude_db = 3", None),
        ("excess_cutoff_thz = 5e-324\nexcess_amplitude_db = 3", None),
        ("excess_cutoff_thz = 53\nexcess_amplitude_db = 4096\n"
         "excess_exponent = 53", 0.0)])
    def test_excess_limits_exit_0(self, tmp_path, excess, f_raw):
        cfg = tmp_path / "excess.cfg"
        cfg.write_text(QUANTUM_CFG.replace("grid_points = 201",
                                           f"grid_points = 201\n{excess}"))
        out = tmp_path / "s"
        assert main(["spectrum", str(cfg), "--out-dir", str(out)]) == 0
        report = json.loads((out / "report.json").read_text())
        if f_raw is None:  # excess only in the DC bin, outside the band
            cfg.write_text(QUANTUM_CFG)
            assert main(["spectrum", str(cfg), "--out-dir",
                         str(tmp_path / "plain")]) == 0
            assert (out / "report.json").read_bytes() == \
                (tmp_path / "plain" / "report.json").read_bytes()
        else:
            assert report["f_raw"] == report["f_int"] == f_raw
        assert verify_manifest(out)

    def test_band_edge_at_modeled_band_accepted(self, tmp_path):
        cfg = tmp_path / "edge.cfg"
        cfg.write_text(QUANTUM_CFG.replace(
            "grid_points = 201", "grid_points = 201\nband_edge_thz = 1.0"))
        assert main(["spectrum", str(cfg), "--out-dir", str(tmp_path / "s")]) == 0
        assert verify_manifest(tmp_path / "s")

    def test_grid_above_bound_exit_2(self, tmp_path, capsys, monkeypatch):
        import cvteleport.cli as cli

        monkeypatch.setattr(cli, "default_grid", never)
        cfg = tmp_path / "grid.cfg"
        cfg.write_text(f"[spectrum]\ngrid_points = {MAX_GRID_POINTS + 1}\n")
        rc = main(["spectrum", str(cfg), "--out-dir", str(tmp_path / "s")])
        assert rc == 2
        assert "spectrum.grid_points: must be at most" in capsys.readouterr().err

    def test_unlisted_file_does_not_verify(self, cfg_file, tmp_path):
        out = tmp_path / "s"
        main(["spectrum", cfg_file, "--seed", "1", "--out-dir", str(out)])
        assert verify_manifest(out)
        (out / "extra").mkdir()
        (out / "extra" / "notes.txt").write_text("not from this run\n")
        assert not verify_manifest(out)

    def test_missing_listed_file_does_not_verify(self, cfg_file, tmp_path):
        out = tmp_path / "s"
        main(["spectrum", cfg_file, "--seed", "1", "--out-dir", str(out)])
        (out / "spectrum.csv").unlink()
        assert not verify_manifest(out)

    @pytest.mark.skipif(os.geteuid() == 0, reason="root ignores permissions")
    def test_unwritable_out_dir_exit_3(self, cfg_file, tmp_path):
        locked = tmp_path / "locked"
        locked.mkdir()
        locked.chmod(stat.S_IRUSR | stat.S_IXUSR)
        rc = main(["spectrum", cfg_file, "--out-dir", str(locked / "x")])
        assert rc == 3

    def test_unwritable_out_dir_error_path(self, tmp_path, capsys,
                                          monkeypatch):
        # a file where the directory should go always fails, even as root;
        # the summary is printed last, so a failed write prints none. An
        # --out-dir under a file is refused before any work, so the file
        # appears only after that check, as if another process made it.
        import cvteleport.cli as cli

        load_config = cli.load_config

        def load_then_block(path):
            blocker.write_text("")
            return load_config(path)

        monkeypatch.setattr(cli, "load_config", load_then_block)
        for command, argv in RUNS.items():
            blocker = tmp_path / command
            assert main(argv + ["--out-dir", str(blocker / "x")]) == 3
            io = capsys.readouterr()
            assert io.out == ""
            assert io.err.startswith("i/o error: ") and io.err.count("\n") == 1
            assert str(blocker / "x") in io.err

    @pytest.mark.parametrize("section", [
        "exclude_below_thz = 2.0",  # no bins left in the sidebands
        "excess_amplitude_db = -200\nexcess_cutoff_thz = 1.0\n"
        "exclude_below_thz = 0",  # raw variance below eta_meas's floor
        "jitter_sigma_db = 1000",
        # dB levels a double cannot average or turn into a variance
        "excess_cutoff_thz = 0.5\nexcess_amplitude_db = 1e308",
        "jitter_sigma_db = 1e308"],
        ids=["no-bins", "excess", "jitter", "excess-overflow", "jitter-overflow"])
    def test_unusable_spectrum_exit_2(self, tmp_path, capsys, section):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(f"[spectrum]\n{section}\n")
        out = tmp_path / "s"
        assert main(["spectrum", str(cfg), "--out-dir", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: spectrum: ") and err.count("\n") == 1
        assert not out.exists()

    def test_tiny_rolloff_is_unsqueezed_limit(self, tmp_path, capsys):
        # (omega / 1e-300) ** 2 overflows to inf: no squeezing off the carrier
        reports = []
        for name, spectrum in [("tiny", "n_sq_center = 0.164399\n"
                                        "rolloff_bandwidth_thz = 1e-300"),
                               ("flat", "n_sq_center = 1.0")]:
            cfg = tmp_path / f"{name}.cfg"
            cfg.write_text(QUANTUM_CFG.replace("n_sq_center = 0.164399",
                                               spectrum))
            out = tmp_path / name
            rc = main(["spectrum", str(cfg), "--seed", "7", "--out-dir", str(out)])
            assert rc == 0 and capsys.readouterr().err == ""
            reports.append(json.loads((out / "report.json").read_text()))
        for key in ("vx_raw_db", "vp_raw_db", "f_raw", "f_int", "n_modes"):
            assert reports[0][key] == reports[1][key]


class TestTimetraceCommand:
    def test_small_run(self, cfg_file, tmp_path, capsys):
        out = tmp_path / "t"
        rc = main(["timetrace", cfg_file, "--seed", "5", "--traces", "4",
                   "--out-dir", str(out)])
        assert rc == 0
        report = json.loads((out / "report.json").read_text())
        assert report["n_traces"] == 4
        assert report["n_modes"] == 4 * 47  # 2 ns / 42 ps = 47 modes per trace
        assert sorted(str(p.relative_to(out)) for p in out.rglob("*")) == [
            "manifest.json", "modes", "modes/inputs.npy", "modes/p.npy",
            "modes/x.npy", "report.json", "traces", "traces/inputs.npy",
            "traces/p.npy", "traces/x.npy"]
        n_samples = 512  # 2 ns at 256 GSa/s
        for name, shape in [("traces/x", (4, n_samples)),
                            ("traces/p", (4, n_samples)),
                            ("traces/inputs", (2, n_samples)),
                            ("modes/x", (4, 47)), ("modes/p", (4, 47)),
                            ("modes/inputs", (2, 47))]:
            array = np.load(out / f"{name}.npy")
            assert array.shape == shape and array.dtype == np.float64
            assert np.all(np.isfinite(array))
        assert verify_manifest(out)

    @staticmethod
    def reference_mode_files(tmp_path, n_traces):
        """The modes/ arrays of the paper's run (128 traces of 2048 samples,
        190 windows each, or fewer traces), and the modes they come from."""
        from cvteleport.timetrace import (
            extract_modes,
            simulate_traces,
            synth_random_coherent,
        )

        out = tmp_path / "t"
        assert main(["timetrace", REFERENCE_CFG, "--seed", "3", "--traces",
                     str(n_traces), "--out-dir", str(out)]) == 0
        cfg = load_config(REFERENCE_CFG)
        tracks = synth_random_coherent(cfg.source, 8.0, seed=(3, 2 ** 31))
        traces = simulate_traces(cfg.teleporter, tracks, n_traces=n_traces,
                                 seed=3)
        x, p, inputs = (np.load(out / "modes" / f"{name}.npy")
                        for name in ("x", "p", "inputs"))
        assert x.shape == p.shape == (n_traces, 190) and inputs.shape == (2, 190)
        return x, p, inputs, extract_modes(traces, 42.0)

    @pytest.mark.parametrize("n_traces", [128, 1])
    def test_mode_files_hold_the_mode_arrays(self, tmp_path, n_traces):
        x, p, inputs, modes = self.reference_mode_files(tmp_path, n_traces)
        # bit for bit: array_equal alone would let -0.0 stand for 0.0
        assert x.tobytes() == modes.x.tobytes()
        assert p.tobytes() == modes.p.tobytes()
        assert inputs.tobytes() == np.stack([modes.in_x, modes.in_p]).tobytes()

    @pytest.mark.parametrize("n_traces", [128, 1])
    def test_mode_arrays_rebuild_pooled_modes(self, tmp_path, n_traces):
        # pooled mode k is trace k // 190, window k % 190
        x, p, inputs, modes = self.reference_mode_files(tmp_path, n_traces)
        assert x.ravel().tobytes() == modes.x.ravel().tobytes()
        assert p.ravel().tobytes() == modes.p.ravel().tobytes()
        for row, in_k in zip(inputs, (modes.in_x, modes.in_p)):
            pooled = np.broadcast_to(in_k, modes.x.shape).ravel()
            assert np.tile(row, n_traces).tobytes() == pooled.tobytes()

    def test_byte_reproducible(self, cfg_file, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        for d in (a, b):
            assert main(["timetrace", cfg_file, "--seed", "9", "--traces", "3",
                         "--out-dir", str(d)]) == 0
        assert (a / "report.json").read_bytes() == (b / "report.json").read_bytes()
        for name in ("x.npy", "p.npy", "inputs.npy"):
            for sub in ("traces", "modes"):
                assert (a / sub / name).read_bytes() == \
                    (b / sub / name).read_bytes()

    def test_too_few_modes_exit_2(self, cfg_file, tmp_path):
        rc = main(["timetrace", cfg_file, "--traces", "2",
                   "--out-dir", str(tmp_path / "t")])
        assert rc == 2

    def test_broken_unity_gain_exit_2(self, tmp_path, capsys):
        cfg = tmp_path / "tap.cfg"
        cfg.write_text(QUANTUM_CFG.replace("[source]",
                                           "tap_reflectivity = 0.5\n[source]"))
        rc = main(["timetrace", str(cfg), "--traces", "4",
                   "--out-dir", str(tmp_path / "t")])
        assert rc == 2
        assert "unknown key teleporter.tap_reflectivity" in \
            capsys.readouterr().err
        assert not (tmp_path / "t").exists()

    @pytest.mark.parametrize("enob", ["53", "2000"])
    def test_enob_above_bound_exit_2(self, tmp_path, capsys, enob):
        cfg = tmp_path / "enob.cfg"
        cfg.write_text(QUANTUM_CFG + f"enob = {enob}\n")
        rc = main(["timetrace", str(cfg), "--traces", "4",
                   "--out-dir", str(tmp_path / "t")])
        assert rc == 2
        assert "timetrace.enob: must be at most 52" in capsys.readouterr().err

    def test_internal_value_error_not_a_config_error(self, cfg_file, tmp_path,
                                                    monkeypatch, capsys):
        import cvteleport.cli as cli

        def broken(traces, window_ps):
            raise ValueError("internal defect")

        monkeypatch.setattr(cli, "extract_modes", broken)
        rc = main(["timetrace", cfg_file, "--traces", "4",
                   "--out-dir", str(tmp_path / "t")])
        assert rc == cli.EXIT_INTERNAL == 4
        err = capsys.readouterr().err
        assert err == "internal error: ValueError: internal defect\n"
        assert "config error" not in err

    def test_window_above_bound_exit_2(self, tmp_path, capsys, monkeypatch):
        from cvteleport import timetrace

        # (L, L) lag arrays of a 16000 ps window would take 295 MB
        monkeypatch.setattr(timetrace, "_mean_mode_variance", never)
        cfg = tmp_path / "wide.cfg"
        cfg.write_text("[timetrace]\nduration_ns = 20\nwindow_ps = 16000\n")
        rc = main(["timetrace", str(cfg), "--traces", "1",
                   "--out-dir", str(tmp_path / "t")])
        assert rc == 2
        assert "timetrace.window_ps: must be at most 4000" in capsys.readouterr().err

    def test_huge_ensemble_exit_2(self, tmp_path, capsys):
        # from about 1e30 the residuals are float64 rounding, not shot noise,
        # and near 1e308 the variances' sums of squares overflow
        for value in ("1e21", "1e32", "1e308"):
            cfg = tmp_path / "huge.cfg"
            cfg.write_text(QUANTUM_CFG.replace(
                "[source]", f"[source]\nensemble_var_shot = {value}"))
            out = tmp_path / "t"
            rc = main(["timetrace", str(cfg), "--traces", "8",
                       "--out-dir", str(out)])
            assert rc == 2
            err = capsys.readouterr().err
            assert err == ("config error: source.ensemble_var_shot: must be at "
                           f"most 1e+20, got {float(value)}\n")
            assert not out.exists()

    def test_ensemble_at_bound_is_still_shot_noise(self, tmp_path, capsys):
        # the residuals at the bound read as at the reference level: the
        # rounding error of amplitudes of size 1e10 is far below shot noise
        reports = []
        for value in ("29.0", "1e20"):
            cfg = tmp_path / f"{value}.cfg"
            cfg.write_text(QUANTUM_CFG.replace(
                "[source]", f"[source]\nensemble_var_shot = {value}"))
            out = tmp_path / value
            rc = main(["timetrace", str(cfg), "--traces", "8", "--seed", "3",
                       "--out-dir", str(out)])
            assert rc == 0 and capsys.readouterr().err == ""
            reports.append(json.loads((out / "report.json").read_text()))
        for key in ("vx_raw_db", "vp_raw_db", "vx_int_db", "vp_int_db"):
            assert reports[1][key] == pytest.approx(reports[0][key], abs=1e-6)

    def test_tiny_source_bandwidth_is_dc_limit(self, tmp_path, capsys):
        # (f / 1e-300) ** 2 overflows to inf: every band above DC is cut
        cfg = tmp_path / "dc.cfg"
        cfg.write_text(QUANTUM_CFG.replace("baseband_bandwidth_ghz = 16.0",
                                           "baseband_bandwidth_ghz = 1e-300"))
        out = tmp_path / "t"
        rc = main(["timetrace", str(cfg), "--traces", "8", "--out-dir", str(out)])
        assert rc == 0 and capsys.readouterr().err == ""
        # a DC-only source is the same constant level along the whole trace
        in_x, in_p = np.load(out / "traces" / "inputs.npy")
        assert np.ptp(in_x) == np.ptp(in_p) == 0.0

    def test_zero_traces_exit_2(self, cfg_file, tmp_path):
        rc = main(["timetrace", cfg_file, "--traces", "0",
                   "--out-dir", str(tmp_path / "t")])
        assert rc == 2

    # the config's 2 ns traces hold 512 samples, so 16384 fill a batch
    @pytest.mark.parametrize("traces", ["0", "16385", "100000000000"])
    def test_traces_out_of_range_names_flag(self, cfg_file, tmp_path, capsys,
                                            monkeypatch, traces):
        import cvteleport.cli as cli

        monkeypatch.setattr(cli, "synth_random_coherent", never)
        monkeypatch.setattr(cli, "simulate_traces", never)
        rc = main(["timetrace", cfg_file, "--traces", traces,
                   "--out-dir", str(tmp_path / "t")])
        assert rc == 2
        err = capsys.readouterr().err
        assert "--traces: must be between 1 and 16384" in err
        assert "n_traces" not in err

    def test_zero_amplitude_source_is_vacuum_case(self, tmp_path):
        cfg = tmp_path / "vac.cfg"
        cfg.write_text("[teleporter]\nn_sq = 0.178\n"
                       "[source]\nensemble_var_shot = 0.0\n"
                       "[timetrace]\nduration_ns = 2.0\n")
        out = tmp_path / "t"
        rc = main(["timetrace", str(cfg), "--seed", "2", "--traces", "16",
                   "--out-dir", str(out)])
        assert rc == 0
        report = json.loads((out / "report.json").read_text())
        # vacuum input: raw variance equals the budget within statistics
        assert report["vx_raw_db"] == pytest.approx(
            report["budget_n_out_db"], abs=3 * report["se_db"])


RUNS = {
    "budget": ["budget", REFERENCE_CFG],
    "spectrum": ["spectrum", REFERENCE_CFG, "--seed", "7"],
    "timetrace": ["timetrace", REFERENCE_CFG, "--seed", "3", "--traces", "2"],
    "sweep": ["sweep", REFERENCE_CFG, "--param", "n_sq", "--range", "1.0",
              "0.05", "--points", "5"],
}


# each run's stdout, {out} standing for its run directory
RUN_STDOUT = {
    "budget": "  quantum: N_out = 1.5204 (+1.820 dB), vacuum fidelity 0.7935\n"
              "classical: N_out = 3.0000 (+4.771 dB), vacuum fidelity 0.5000\n",
    "spectrum": "spectrum: raw (+1.743, +1.741) dB, intrinsic (+1.899, +1.897) "
                "dB, F_raw = 0.8021, F_int = 0.7849\nwrote {out}\n",
    "timetrace": "timetrace: 380 modes, raw (+1.694, +2.061) dB, intrinsic "
                 "(+1.847, +2.240) dB, F_raw = 0.7617, F_int = 0.7688 "
                 "(se 0.315 dB)\nwrote {out}\n",
    "sweep": "swept n_sq over [1.0, 0.05] (5 points); wrote {out}/sweep_n_sq.csv\n",
}
RUN_SEED = {"budget": None, "spectrum": 7, "timetrace": 3, "sweep": None}


def file_digests(out: Path) -> dict:
    return {p.relative_to(out): hashlib.sha256(p.read_bytes()).hexdigest()
            for p in out.rglob("*") if p.is_file()}


class TestRunDirectory:
    @pytest.mark.parametrize("first", list(RUNS))
    def test_rerun_into_used_out_dir_refused(self, tmp_path, capsys, first):
        out = tmp_path / "run"
        assert main(RUNS[first] + ["--out-dir", str(out)]) == 0
        before = file_digests(out)
        assert "manifest.json" in {p.name for p in before}
        capsys.readouterr()
        # the same command again, and another command
        for second in (first, "spectrum" if first == "budget" else "budget"):
            assert main(RUNS[second] + ["--out-dir", str(out)]) == 2
            err = capsys.readouterr().err
            assert err == f"config error: --out-dir: {out} is not empty\n"
            assert file_digests(out) == before
        assert verify_manifest(out)

    @pytest.mark.parametrize("command", list(RUNS))
    def test_used_out_dir_refused_before_computing(self, tmp_path, capsys,
                                                   monkeypatch, command):
        import cvteleport.cli as cli

        for name in ("load_config", "synthesize_spectrum", "simulate_traces",
                     "run_teleport", "analytic_noise_budget"):
            monkeypatch.setattr(cli, name, never)  # would end in exit 4
        used = tmp_path / "used"
        used.mkdir()
        (used / "earlier.txt").write_text("kept\n")
        a_file = tmp_path / "a_file"
        a_file.write_text("kept\n")
        # an out-dir under a file names the file, the nearest existing path
        for out, named, fault in ((used, used, "is not empty"),
                                  (a_file, a_file, "is not a directory"),
                                  (a_file / "x", a_file, "is not a directory")):
            assert main(RUNS[command] + ["--out-dir", str(out)]) == 2
            io = capsys.readouterr()
            assert io.err == f"config error: --out-dir: {named} {fault}\n"
            assert io.out == ""
        assert sorted(p.name for p in tmp_path.iterdir()) == ["a_file", "used"]
        assert [p.name for p in used.iterdir()] == ["earlier.txt"]
        assert a_file.read_text() == "kept\n"

    @pytest.mark.parametrize("command", list(RUNS))
    def test_out_root_under_file_refused_before_computing(
            self, tmp_path, capsys, monkeypatch, command):
        import cvteleport.cli as cli

        monkeypatch.setattr(cli, f"compute_{command}", never)
        # uncached, so the parser binds the stand-in compute function
        monkeypatch.setattr(cli, "build_parser", cli.build_parser.__wrapped__)
        a_file = tmp_path / "a_file"
        a_file.write_text("kept\n")
        for root in (a_file, a_file / "runs"):
            monkeypatch.setenv("CVTELEPORT_OUT_ROOT", str(root))
            assert main(RUNS[command]) == 2
            io = capsys.readouterr()
            assert io.err == (f"config error: CVTELEPORT_OUT_ROOT: {a_file} "
                              "is not a directory\n")
            assert io.out == ""
        assert [p.name for p in tmp_path.iterdir()] == ["a_file"]
        assert a_file.read_text() == "kept\n"

    @pytest.mark.parametrize("command", list(RUNS))
    def test_stdout_and_manifest_fields(self, tmp_path, capsys, command):
        out = tmp_path / "run"
        assert main(RUNS[command] + ["--out-dir", str(out)]) == 0
        io = capsys.readouterr()
        assert io.out == RUN_STDOUT[command].replace("{out}", str(out))
        assert io.err == ""
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["schema"] == 1
        assert manifest["command"] == command
        assert manifest["tool_version"] == cvteleport.__version__
        assert manifest["master_seed"] == RUN_SEED[command]
        assert manifest["config"] == load_config(REFERENCE_CFG).raw

    @pytest.mark.parametrize("regime", ["quantum", "classical"])
    @pytest.mark.parametrize("command", list(RUNS))
    def test_manifest_lists_the_finished_directory(self, tmp_path, capsys,
                                                  command, regime):
        # the manifest holds the digests of the bytes each writer wrote; the
        # directory read back afterwards gives the same mapping
        cfg = REFERENCE_CFG.replace("reference_quantum", f"reference_{regime}")
        out = tmp_path / "run"
        args = [cfg if a == REFERENCE_CFG else a for a in RUNS[command]]
        assert main(args + ["--out-dir", str(out)]) == 0
        outputs = json.loads((out / "manifest.json").read_text())["outputs"]
        assert outputs == cli.run_outputs(out)

    def test_file_added_during_run_is_unlisted(self, tmp_path, capsys,
                                               monkeypatch):
        # another process drops a file into the run directory while the run
        # writes: the manifest lists only what the run wrote
        write_json = cli.write_json

        def and_a_stray_file(path, payload):
            if path.name == "report.json":
                (path.parent / "stray.txt").write_text("not ours\n")
            return write_json(path, payload)

        monkeypatch.setattr(cli, "write_json", and_a_stray_file)
        out = tmp_path / "run"
        assert main(RUNS["spectrum"] + ["--out-dir", str(out)]) == 0
        capsys.readouterr()
        assert main(["verify", str(out)]) == 1
        assert capsys.readouterr().err == f"{out}: unlisted file stray.txt\n"

    def test_existing_empty_dir_accepted(self, cfg_file, tmp_path):
        out = tmp_path / "empty"
        out.mkdir()
        assert main(["budget", cfg_file, "--out-dir", str(out)]) == 0
        assert sorted(p.name for p in out.iterdir()) == ["budget.json",
                                                          "manifest.json"]
        assert verify_manifest(out)

    def test_os_error_while_finishing_exit_3(self, cfg_file, tmp_path, capsys,
                                             monkeypatch):
        import cvteleport.cli as cli

        # the manifest's atomic rename, the last file operation of a run
        def denied(src, dst):
            raise PermissionError(13, "Permission denied", str(src))

        monkeypatch.setattr(cli.os, "replace", denied)
        out = tmp_path / "s"
        rc = main(["spectrum", cfg_file, "--out-dir", str(out)])
        assert rc == cli.EXIT_IO == 3
        err = capsys.readouterr().err
        assert err.startswith("i/o error: [Errno 13] Permission denied: ")
        assert err.count("\n") == 1 and str(out) in err
        assert not (out / "manifest.json").exists()


class TestClosedStdout:
    @pytest.mark.parametrize("unbuffered", ["1", ""], ids=["unbuffered", "buffered"])
    @pytest.mark.parametrize("command", [["budget"], ["spectrum", "--seed", "7"]],
                             ids=["budget", "spectrum"])
    def test_closed_reader_keeps_exit_code(self, command, unbuffered, tmp_path):
        # the reader closes its end before the child writes, as `| head -n 1`
        # may: unbuffered, the summary print raised; buffered, the flush at
        # interpreter exit did
        read_end, write_end = os.pipe()
        os.close(read_end)
        src = Path(cvteleport.__file__).resolve().parents[1]
        env = dict(os.environ, PYTHONPATH=str(src), PYTHONUNBUFFERED=unbuffered)
        try:
            result = subprocess.run(
                [sys.executable, "-m", "cvteleport.cli", command[0], REFERENCE_CFG,
                 *command[1:], "--out-dir", str(tmp_path / "run")],
                stdout=write_end, stderr=subprocess.PIPE, text=True, env=env,
                timeout=120)
        finally:
            os.close(write_end)
        assert (result.returncode, result.stderr) == (0, "")
        assert verify_manifest(tmp_path / "run")


class TestVerifyCommand:
    @pytest.fixture
    def run_dir(self, tmp_path, capsys):
        out = tmp_path / "run"
        assert main(RUNS["timetrace"] + ["--out-dir", str(out)]) == 0
        capsys.readouterr()
        return out

    def verify(self, out, capsys):
        rc = main(["verify", str(out)])
        return rc, capsys.readouterr()

    def test_verifying_run_exit_0(self, run_dir, capsys):
        rc, io = self.verify(run_dir, capsys)
        assert rc == 0 and io.err == ""
        assert io.out == f"{run_dir}: manifest verified\n"

    def test_missing_file_exit_1(self, run_dir, capsys):
        (run_dir / "traces" / "x.npy").unlink()
        rc, io = self.verify(run_dir, capsys)
        assert rc == 1
        assert io.err == f"{run_dir}: missing file traces/x.npy\n"

    def test_unlisted_file_exit_1(self, run_dir, capsys):
        (run_dir / "traces" / "notes.txt").write_text("added later\n")
        rc, io = self.verify(run_dir, capsys)
        assert rc == 1
        assert io.err == f"{run_dir}: unlisted file traces/notes.txt\n"

    def test_altered_file_exit_1(self, run_dir, capsys):
        with open(run_dir / "modes" / "x.npy", "ab") as fh:
            fh.write(b"\0" * 8)
        rc, io = self.verify(run_dir, capsys)
        assert rc == 1
        assert io.err == f"{run_dir}: altered file modes/x.npy\n"

    def test_first_fault_in_name_order(self, run_dir, capsys):
        (run_dir / "report.json").write_text("{}\n")
        (run_dir / "modes" / "x.npy").unlink()
        rc, io = self.verify(run_dir, capsys)
        assert rc == 1 and io.err == f"{run_dir}: missing file modes/x.npy\n"

    @pytest.mark.parametrize("text, fault", [
        (None, "manifest.json is missing or not JSON"),
        ("not json", "manifest.json is missing or not JSON"),
        ('{"outputs": []}', "manifest.json has no outputs mapping"),
        ("[1, 2]", "manifest.json has no outputs mapping"),
        ("<manifest is a directory>", "manifest.json is missing or not JSON"),
        ("<run dir is a file>", "manifest.json is missing or not JSON")])
    def test_bad_manifest_exit_1(self, run_dir, capsys, text, fault):
        manifest = run_dir / "manifest.json"
        if text is None:
            manifest.unlink()
        elif text == "<manifest is a directory>":
            manifest.unlink()
            manifest.mkdir()
        elif text == "<run dir is a file>":
            run_dir = run_dir / "report.json"
        else:
            manifest.write_text(text)
        rc, io = self.verify(run_dir, capsys)
        assert rc == 1 and io.err == f"{run_dir}: {fault}\n"
        assert not verify_manifest(run_dir)


def npy_bytes(array) -> bytes:
    buffer = io.BytesIO()
    np.save(buffer, array)
    return buffer.getvalue()


def digest_of(path: Path) -> dict:
    """What a writer returns for the file it wrote at ``path``."""
    return {path: f"sha256:{hashlib.sha256(path.read_bytes()).hexdigest()}"}


class TestCsvWriters:
    @staticmethod
    def expected(header, columns):
        rows = [",".join(f"{float(v):.17g}" for v in row) for row in zip(*columns)]
        return "".join(line + "\n" for line in [",".join(header)] + rows)

    @staticmethod
    def assert_npy_files(array_dir, written, x, p, inputs):
        """Each file holds np.save's bytes, and ``written`` its digest."""
        for name, array in (("x", x), ("p", p), ("inputs", inputs)):
            path = array_dir / f"{name}.npy"
            assert path.read_bytes() == npy_bytes(array)
            assert written[path] == digest_of(path)[path]
        assert len(written) == 3

    def test_rows_are_17_digit_values(self, tmp_path):
        import cvteleport.cli as cli

        columns = [np.arange(7), [0.1, -0.0, 1e22, 2.5e-300, -1 / 3, 7.0, 1e-5],
                   np.linspace(-1.0, 1.0, 7)]
        path = tmp_path / "t.csv"
        written = cli.write_csv(path, ["a", "b", "c"], columns)
        assert path.read_text() == self.expected(["a", "b", "c"], columns)
        assert written == digest_of(path)

    def test_rows_span_blocks(self, tmp_path):
        import cvteleport.cli as cli

        rng = np.random.default_rng(5)
        n_rows = 2 * cli.CSV_BLOCK_ROWS + 3
        columns = [np.arange(n_rows), rng.normal(size=n_rows)]
        path = tmp_path / "t.csv"
        written = cli.write_csv(path, ["k", "v"], columns)
        assert path.read_text() == self.expected(["k", "v"], columns)
        assert written == digest_of(path)
        assert cli.write_csv(path, ["k", "v"], [[], []]) == digest_of(path)
        assert path.read_text() == "k,v\n"

    def test_json_text_is_json_dump_text(self, tmp_path):
        payload = {"schema": 1, "z": [0.1, -0.0, 1e22, 5e-324, -1 / 3, None],
                   "a": {"nested": True, "b": False, "inf": float("inf")},
                   "text": "caf\u00e9 \u00b1 \"q\"\n", "empty": {}, "n": -7}
        path = tmp_path / "t.json"
        written = cli.write_json(path, payload)
        want = io.StringIO()
        json.dump(payload, want, indent=2, sort_keys=True)
        assert path.read_bytes() == (want.getvalue() + "\n").encode()
        assert written == digest_of(path)

    def test_reference_batch_files(self, tmp_path):
        # the paper's run: 128 traces of 2048 samples and their 190 windows
        import cvteleport.cli as cli
        from cvteleport.timetrace import extract_modes, simulate_traces

        cfg = load_config(REFERENCE_CFG)
        tracks = cli.synth_random_coherent(cfg.source, 8.0, seed=(3, 2 ** 31))
        traces = simulate_traces(cfg.teleporter, tracks, n_traces=128, seed=3)
        modes = extract_modes(traces, 42.0)
        assert modes.x.shape == (128, 190) and modes.in_x.shape == (190,)
        for sub, args, n in [
                ("traces", (traces.x_samples, traces.p_samples,
                            traces.input_mean_x, traces.input_mean_p), 2048),
                ("modes", (modes.x, modes.p, modes.in_x, modes.in_p), 190)]:
            written = cli.write_arrays(tmp_path / sub, *args)
            assert sorted(p.name for p in (tmp_path / sub).iterdir()) == \
                ["inputs.npy", "p.npy", "x.npy"]
            self.assert_npy_files(tmp_path / sub, written, args[0], args[1],
                                  np.stack(args[2:]))
            x, p, inputs = (np.load(tmp_path / sub / f"{name}.npy")
                            for name in ("x", "p", "inputs"))
            assert x.shape == p.shape == (128, n) and inputs.shape == (2, n)
            assert x.dtype == p.dtype == inputs.dtype == np.float64
            # bit for bit: array_equal alone would let -0.0 stand for 0.0
            assert x.tobytes() == args[0].tobytes()
            assert p.tobytes() == args[1].tobytes()
            assert inputs.tobytes() == np.stack(args[2:]).tobytes()

    def test_trace_arrays_round_trip(self, tmp_path):
        import cvteleport.cli as cli

        rng = np.random.default_rng(3)
        x, p = rng.normal(size=(2, 3, 50))
        x[0, :5] = [0.0, -0.0, 5e-324, -1e308, 1.7976931348623157e308]
        in_x, in_p = rng.normal(size=50), np.zeros(50)
        in_p[:2] = [-0.0, -5e-324]
        written = cli.write_arrays(tmp_path / "a", x, p, in_x, in_p)
        self.assert_npy_files(tmp_path / "a", written, x, p,
                              np.stack([in_x, in_p]))
        for name, want in [("x", x), ("p", p),
                           ("inputs", np.stack([in_x, in_p]))]:
            got = np.load(tmp_path / "a" / f"{name}.npy")
            assert got.shape == want.shape and got.dtype == np.float64
            assert got.tobytes() == want.tobytes()
        # np.save writes a fixed header for a fixed dtype and shape
        cli.write_arrays(tmp_path / "b", x, p, in_x, in_p)
        files = lambda d: {f.name: f.read_bytes() for f in d.iterdir()}
        assert files(tmp_path / "b") == files(tmp_path / "a")
        # a run directory is written once: no array directory is reused
        with pytest.raises(FileExistsError):
            cli.write_arrays(tmp_path / "a", x, p, in_x, in_p)


class TestSweepCommand:
    def test_n_sq_monotone(self, cfg_file, tmp_path):
        out = tmp_path / "s"
        rc = main(["sweep", cfg_file, "--param", "n_sq", "--range", "1.0",
                   "0.05", "--points", "12", "--out-dir", str(out)])
        assert rc == 0
        data = np.genfromtxt(out / "sweep_n_sq.csv", delimiter=",", names=True)
        assert np.all(np.diff(data["n_out_db"]) < 0)  # decreasing toward 0.05

    def test_classical_eta_cancellation(self, tmp_path):
        # classical regime with eta_bell = eta_meas: constant 3.0 output
        cfg = tmp_path / "c.cfg"
        cfg.write_text("[teleporter]\nn_sq = 1.0\nregime = classical\n")
        out = tmp_path / "s"
        rc = main(["sweep", str(cfg), "--param", "eta_meas", "--range", "0.9",
                   "0.9", "--points", "1", "--out-dir", str(out)])
        assert rc == 0
        data = np.genfromtxt(out / "sweep_eta_meas.csv", delimiter=",",
                             names=True)
        assert float(data["n_out"]) == pytest.approx(3.0, abs=1e-12)

    def test_eta_meas_endpoints_match_formula(self, cfg_file, tmp_path):
        out = tmp_path / "s"
        rc = main(["sweep", cfg_file, "--param", "eta_meas", "--range", "0.5",
                   "1.0", "--points", "6", "--out-dir", str(out)])
        assert rc == 0
        data = np.genfromtxt(out / "sweep_eta_meas.csv", delimiter=",",
                             names=True)
        inner = 1 + 2 * 0.178 + 2 * (1 - 0.9) / 0.9
        for eta, n_out in zip(data["value"], data["n_out"]):
            assert n_out == pytest.approx(eta * inner + (1 - eta), rel=1e-12)

    def test_circuit_converges_along_gain_sweep(self, cfg_file, tmp_path):
        out = tmp_path / "s"
        rc = main(["sweep", cfg_file, "--param", "ff_gain_db", "--range", "20",
                   "60", "--points", "5", "--out-dir", str(out)])
        assert rc == 0
        data = np.genfromtxt(out / "sweep_ff_gain_db.csv", delimiter=",",
                             names=True)
        gap = np.abs(data["circuit_n_out"] - data["n_out"]) / data["n_out"]
        assert gap[-1] < 1e-3          # converged at 60 dB
        assert gap[0] > gap[-1]        # and visibly finite-gain at 20 dB

    @pytest.mark.parametrize("lo,hi", [("40", "4000"), ("40", "-4000"),
                                       ("60", "1e308")])
    def test_ff_gain_db_out_of_range_exit_2(self, cfg_file, tmp_path, capsys,
                                            lo, hi):
        rc = main(["sweep", cfg_file, "--param", "ff_gain_db", "--range", lo,
                   hi, "--out-dir", str(tmp_path / "s")])
        assert rc == 2
        assert "teleporter.ff_gain_db" in capsys.readouterr().err
        assert not (tmp_path / "s").exists()

    @staticmethod
    def reference_rows(tcfg, param, values):
        """The sweep table, one scalar config per point."""
        rows = []
        for value in values.tolist():
            point = dataclasses.replace(tcfg, **{param: value})
            budget = analytic_noise_budget(point)
            _, _, vx, vp = quad_statistics(run_teleport(point, make_vacuum(1)), 0)
            circuit = 0.5 * (vx + vp)
            rows.append([value, budget.n_out, budget.n_out_db,
                         budget.fidelity_vacuum, circuit, 10 * np.log10(circuit)])
        return np.array(rows).T

    @pytest.mark.parametrize("regime", ["quantum", "classical"])
    @pytest.mark.parametrize("param,lo,hi", [
        ("n_sq", "0.05", "1.0"), ("eta_bell", "0.5", "1.0"),
        ("eta_meas", "0.5", "1.0"), ("ff_gain_db", "40", "70"),
        ("ff_gain_db", "10", "120")])
    def test_csv_equals_per_point_rows(self, tmp_path, param, lo, hi, regime):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(QUANTUM_CFG.replace("regime = quantum",
                                           f"regime = {regime}"))
        out = tmp_path / "s"
        rc = main(["sweep", str(cfg), "--param", param, "--range", lo, hi,
                   "--out-dir", str(out)])
        assert rc == 0
        expected = tmp_path / "expected.csv"
        write_csv(expected, SWEEP_HEADER, self.reference_rows(
            load_config(cfg).teleporter, param,
            np.linspace(float(lo), float(hi), 41)))
        assert (out / f"sweep_{param}.csv").read_bytes() == expected.read_bytes()

    # 0.001 is far from unity gain at 60 dB; 2 / (0.9e6) is the unity-gain
    # tap at the base point. The key is refused whatever its value.
    @pytest.mark.parametrize("param,lo,hi,tap", [
        ("n_sq", "0.1", "1.0", "0.001"), ("eta_bell", "0.8", "1.0", "0.001"),
        ("eta_bell", "0.8", "1.0", repr(2.0 / (0.9 * 1e6))),
        ("ff_gain_db", "50", "70", repr(2.0 / (0.9 * 1e6)))])
    def test_explicit_tap_off_unity_gain_exit_2(self, tmp_path, capsys, param,
                                                lo, hi, tap):
        cfg = tmp_path / "tap.cfg"
        cfg.write_text(f"[teleporter]\nff_gain_db = 60\n"
                       f"tap_reflectivity = {tap}\n")
        rc = main(["sweep", str(cfg), "--param", param, "--range", lo, hi,
                   "--out-dir", str(tmp_path / "s")])
        assert rc == 2
        assert "unknown key teleporter.tap_reflectivity" in \
            capsys.readouterr().err
        assert not (tmp_path / "s").exists()

    # at n_sq = 5e-324 the circuit's covariances overflowed: the sweep wrote
    # nan circuit columns and exited 0
    @pytest.mark.parametrize("value", ["5e-324", "1e-7"])
    @pytest.mark.parametrize("field,command", [
        ("teleporter.n_sq", ["sweep", "--param", "eta_meas", "--range", "0.1",
                             "1", "--points", "5"]),
        ("teleporter.n_sq", ["budget"]),
        ("teleporter.n_sq", ["timetrace", "--traces", "1"]),
        ("spectrum.n_sq_center", ["spectrum"])])
    def test_config_n_sq_below_floor_exit_2(self, tmp_path, capsys, value,
                                            field, command):
        section, key = field.split(".")
        cfg = tmp_path / "c.cfg"
        cfg.write_text(f"[{section}]\n{key} = {value}\n")
        rc = main([command[0], str(cfg), *command[1:], "--out-dir",
                   str(tmp_path / "s")])
        assert rc == 2
        err = capsys.readouterr().err
        assert err == (f"config error: {field}: must be at least 1e-06, got "
                       f"{float(value)}\n")
        assert not (tmp_path / "s").exists()

    @pytest.mark.parametrize("lo", ["5e-324", "1e-7", "-1"])
    def test_n_sq_range_below_floor_exit_2(self, cfg_file, tmp_path, capsys,
                                           lo):
        rc = main(["sweep", cfg_file, "--param", "n_sq", "--range", lo, "1",
                   "--points", "5", "--out-dir", str(tmp_path / "s")])
        assert rc == 2
        err = capsys.readouterr().err
        assert err == (f"config error: teleporter.n_sq: must be at least "
                       f"1e-06, got {float(lo)}\n")
        assert not (tmp_path / "s").exists()

    def test_n_sq_range_at_floor_is_finite(self, cfg_file, tmp_path):
        # RuntimeWarnings are errors here, so an overflow would fail the run
        out = tmp_path / "s"
        rc = main(["sweep", cfg_file, "--param", "n_sq", "--range",
                   repr(MIN_N_SQ), "1", "--points", "5", "--out-dir", str(out)])
        assert rc == 0
        data = np.genfromtxt(out / "sweep_n_sq.csv", delimiter=",", names=True)
        assert data["value"][0] == MIN_N_SQ
        assert all(np.all(np.isfinite(data[name])) for name in SWEEP_HEADER)

    @pytest.mark.parametrize("points", [MAX_SWEEP_POINTS + 1, 10 ** 8])
    def test_points_above_bound_exit_2(self, cfg_file, tmp_path, capsys,
                                       monkeypatch, points):
        import cvteleport.cli as cli

        def never(*args, **kwargs):
            raise AssertionError("the sweep ran past its --points bound")

        monkeypatch.setattr(cli, "run_teleport", never)
        monkeypatch.setattr(cli.np, "linspace", never)
        rc = main(["sweep", cfg_file, "--param", "n_sq", "--range", "0.1",
                   "1.0", "--points", str(points), "--out-dir",
                   str(tmp_path / "s")])
        assert rc == 2
        assert f"--points: must be between 1 and {MAX_SWEEP_POINTS}" in \
            capsys.readouterr().err

    @pytest.mark.parametrize("lo, hi", [("0.1", "inf"), ("inf", "1.0"),
                                        ("0.5", "nan"), ("nan", "1.0"),
                                        ("-inf", "1.0"), ("-nan", "1.0")])
    def test_non_finite_range_exit_2(self, cfg_file, tmp_path, capsys,
                                     monkeypatch, lo, hi):
        import cvteleport.cli as cli

        def never(*args, **kwargs):
            raise AssertionError("the sweep ran on a non-finite --range")

        monkeypatch.setattr(cli, "run_teleport", never)
        monkeypatch.setattr(cli.np, "linspace", never)
        rc = main(["sweep", cfg_file, "--param", "n_sq", "--range", lo, hi,
                   "--points", "5", "--out-dir", str(tmp_path / "s")])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert "--range" in err and "teleporter" not in err
        assert not (tmp_path / "s").exists()

    # no sweep parameter admits a negative value, so the config check refuses
    # the sweep; the first value of its grid shows how MIN was read
    @pytest.mark.parametrize("lo", ["-1e1", "-1E+1", "-.5e-1"])
    def test_negative_exponent_min_read_as_value(self, cfg_file, tmp_path,
                                                 capsys, monkeypatch, lo):
        grids, real = [], np.linspace

        def linspace(*args):
            grids.append(real(*args))
            return grids[-1]

        monkeypatch.setattr(cli.np, "linspace", linspace)
        rc = main(["sweep", cfg_file, "--param", "ff_gain_db", "--range", lo,
                   "70", "--points", "5", "--out-dir", str(tmp_path / "s")])
        assert rc == 2
        assert "config error: teleporter.ff_gain_db" in capsys.readouterr().err
        assert len(grids) == 1 and grids[0][0] == float(lo)
        assert not (tmp_path / "s").exists()

    def test_range_with_one_value_exit_2(self, cfg_file, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["sweep", cfg_file, "--param", "ff_gain_db", "--range", "-1e1",
                  "--out-dir", str(tmp_path / "s")])
        assert exc.value.code == 2
        assert "argument --range: expected 2 arguments" in \
            capsys.readouterr().err
        assert not (tmp_path / "s").exists()

    @settings(max_examples=300, deadline=None)
    @given(st.text(alphabet="-0123456789._eE+infatyINFATY\u0131\u0661 \t",
                   max_size=12))
    def test_negative_number_matcher_is_float_after_minus(self, text):
        # \u0131 (dotless i) folds to "I" in a case-blind regex, yet float()
        # refuses it; \u0661 is an Arabic-Indic digit, which float() reads
        try:
            float(text)
            reads = text.startswith("-")
        except ValueError:
            reads = False
        assert bool(NEGATIVE_FLOAT.match(text)) == reads

    @pytest.mark.parametrize("points", ["0", "-1"])
    def test_bad_points_exit_2(self, cfg_file, tmp_path, capsys, points):
        rc = main(["sweep", cfg_file, "--param", "n_sq", "--range", "0.1",
                   "1.0", "--points", points, "--out-dir", str(tmp_path / "s")])
        assert rc == 2
        assert "--points" in capsys.readouterr().err

    def test_unknown_param_exit_2(self, cfg_file, tmp_path, capsys):
        rc = main(["sweep", cfg_file, "--param", "bogus", "--range", "0", "1",
                   "--out-dir", str(tmp_path / "s")])
        assert rc == 2


class TestSharedParser:
    """main parses every call with one parser built on its first call; no
    call leaves a value behind for the next."""

    @pytest.fixture(autouse=True)
    def fresh_parser(self):
        cli.build_parser.cache_clear()
        yield
        cli.build_parser.cache_clear()

    def test_built_once(self):
        assert cli.build_parser() is cli.build_parser()

    def test_three_calls_construct_one_parser(self, cfg_file, tmp_path,
                                              monkeypatch):
        built = []

        class Counting(argparse.ArgumentParser):
            def __init__(self, *args, **kwargs):
                if kwargs.get("prog") == "cvteleport":  # not a subparser
                    built.append(self)
                super().__init__(*args, **kwargs)

        # in cli's view of argparse only: argparse itself names its class
        monkeypatch.setattr(cli, "argparse",
                            SimpleNamespace(ArgumentParser=Counting))
        for i in range(3):
            assert main(["budget", cfg_file, "--out-dir",
                         str(tmp_path / f"b{i}")]) == 0
        assert len(built) == 1

    def test_points_default_after_explicit_points(self, cfg_file, tmp_path):
        sweep = ["sweep", cfg_file, "--param", "n_sq", "--range", "0.1", "1.0"]
        assert main(sweep + ["--points", "5", "--out-dir",
                             str(tmp_path / "a")]) == 0
        assert main(sweep + ["--out-dir", str(tmp_path / "b")]) == 0
        rows = (tmp_path / "b" / "sweep_n_sq.csv").read_text().splitlines()
        assert len(rows) == 1 + 41

    def test_seed_default_after_explicit_seed(self, cfg_file, tmp_path):
        assert main(["spectrum", cfg_file, "--seed", "7", "--out-dir",
                     str(tmp_path / "a")]) == 0
        assert main(["spectrum", cfg_file, "--out-dir",
                     str(tmp_path / "b")]) == 0
        report = json.loads((tmp_path / "b" / "report.json").read_text())
        assert report["seed"] == 0

    def test_traces_default_after_explicit_traces(self, cfg_file, tmp_path):
        assert main(["timetrace", cfg_file, "--traces", "3", "--out-dir",
                     str(tmp_path / "a")]) == 0
        assert main(["timetrace", cfg_file, "--out-dir",
                     str(tmp_path / "b")]) == 0
        report = json.loads((tmp_path / "b" / "report.json").read_text())
        assert report["n_traces"] == load_config(cfg_file).timetrace.n_traces

    def test_parse_error_leaves_next_call_as_fresh_process(self, cfg_file,
                                                           tmp_path, capsys):
        sweep = ["sweep", cfg_file, "--range", "0.1", "1.0", "--points", "7"]
        with pytest.raises(SystemExit) as exc:
            main(sweep + ["--out-dir", str(tmp_path / "bad")])
        assert exc.value.code == 2
        capsys.readouterr()
        a, b = tmp_path / "a", tmp_path / "b"
        args = sweep + ["--param", "eta_bell", "--out-dir"]
        assert main(args + [str(a)]) == 0
        out = capsys.readouterr().out
        src = Path(cvteleport.__file__).resolve().parents[1]
        fresh = subprocess.run(
            [sys.executable, "-m", "cvteleport.cli", *args, str(b)],
            capture_output=True, text=True,
            env=dict(os.environ, PYTHONPATH=str(src)), timeout=120)
        assert fresh.returncode == 0, fresh.stderr
        assert out.replace(str(a), str(b)) == fresh.stdout
        names = sorted(p.name for p in a.iterdir())
        assert names == sorted(p.name for p in b.iterdir())
        for name in names:  # the manifest alone carries timestamps
            if name != "manifest.json":
                assert (a / name).read_bytes() == (b / name).read_bytes()
        assert not (tmp_path / "bad").exists()


class TestValidateCommand:
    def test_quick_level_passes(self, capsys):
        rc = main(["validate", "--level", "quick"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "checks passed" in out
        assert "FAIL" not in out

    def test_full_level_passes(self, capsys):
        rc = main(["validate", "--level", "full"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "8/8 checks passed" in out
        assert "FAIL" not in out

    def test_failing_check_exit_1(self, capsys, monkeypatch):
        import cvteleport.validate as validate

        def broken(level):
            raise AssertionError("synthetic failure")

        monkeypatch.setattr(validate, "CHECKS",
                            [("demo:broken", broken)] + validate.CHECKS[:1])
        rc = main(["validate", "--level", "quick"])
        assert rc == 1
        out = capsys.readouterr().out
        assert "[FAIL] demo:broken" in out and "synthetic failure" in out

    def test_raising_check_fails_and_rest_run(self, capsys, monkeypatch):
        import cvteleport.validate as validate

        def raising(level):
            raise ValueError("not a number")

        monkeypatch.setattr(validate, "CHECKS",
                            [("demo:raises", raising)] + validate.CHECKS[:2])
        rc = main(["validate", "--level", "quick"])
        assert rc == 1
        lines = capsys.readouterr().out.splitlines()
        assert lines[0].startswith("[FAIL] demo:raises (")
        assert lines[0].endswith("): ValueError: not a number")
        assert [line[:6] for line in lines[1:3]] == ["[PASS]"] * 2
        assert lines[3] == "2/3 checks passed (level=quick)"

    def test_corrupted_config_exit_2(self, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("[teleporter]\nn_sq = lots\n")
        assert main(["validate", str(cfg), "--level", "quick"]) == 2

    def test_non_utf8_config_exit_2(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_bytes(b"[teleporter]\nn_sq = 0.5\xff\n")
        assert main(["validate", str(cfg), "--level", "quick"]) == 2
        assert capsys.readouterr().err.startswith(
            f"config error: cannot read config file {cfg}: ")
