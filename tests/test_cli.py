"""Tests of the command-line front end: exit codes, file formats,
reproducibility, and manifest integrity."""

import dataclasses
import json
import os
import stat
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import cvteleport
from cvteleport.cli import MAX_SWEEP_POINTS, main, verify_manifest, write_csv
from cvteleport.config import (
    _DEFAULTS,
    ConfigError,
    RunConfig,
    load_config,
    parse_config_text,
)
from cvteleport.gaussian import make_vacuum, quad_statistics
from cvteleport.spectral import MAX_GRID_POINTS
from cvteleport.teleporter import (
    TeleporterConfig,
    analytic_noise_budget,
    run_teleport,
)
from cvteleport.timetrace import MAX_DURATION_NS, MAX_WINDOW_PS, max_traces

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


@pytest.fixture
def cfg_file(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text(QUANTUM_CFG)
    return str(path)


def never(*args, **kwargs):
    raise AssertionError("ran past a size bound")


def test_cli_imports_without_scipy():
    # scipy is a test dependency only; the runtime must not load it
    src = Path(cvteleport.__file__).resolve().parents[1]
    code = "import sys, cvteleport.cli; assert 'scipy' not in sys.modules"
    result = subprocess.run([sys.executable, "-c", code], capture_output=True,
                            text=True, env=dict(os.environ, PYTHONPATH=str(src)),
                            timeout=120)
    assert result.returncode == 0, result.stderr


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
        ("source", "attenuation_db"), ("spectrum", "excess_amplitude_db"),
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

    @pytest.mark.parametrize("value", ["4000", "-4000", "1e308", "-1e308",
                                       "200", "120.001", "3.4"])
    def test_ff_gain_db_out_of_range_names_field(self, value):
        # the unity-gain range at eta_bell = 0.9 is (3.47, 120] dB
        with pytest.raises(ConfigError, match="teleporter.ff_gain_db"):
            parse_config_text(f"[teleporter]\nff_gain_db = {value}\n")

    def test_ff_gain_db_range_edges_accepted(self):
        for value in ("3.5", "120"):
            cfg = parse_config_text(f"[teleporter]\nff_gain_db = {value}\n")
            assert cfg.teleporter.is_unity_gain()

    def test_explicit_tap_out_of_range_names_field(self):
        with pytest.raises(ConfigError, match="teleporter.tap_reflectivity"):
            parse_config_text("[teleporter]\ntap_reflectivity = 1.0\n")

    @pytest.mark.parametrize("value", ["4000", "3.0"])
    def test_ff_gain_db_range_checked_with_explicit_tap(self, value):
        # above MAX_FF_GAIN_DB, and below the 3.47 dB floor at eta_bell = 0.9
        with pytest.raises(ConfigError, match="teleporter.ff_gain_db"):
            parse_config_text(f"[teleporter]\nff_gain_db = {value}\n"
                              "tap_reflectivity = 0.001\n")
        assert parse_config_text("[teleporter]\ntap_reflectivity = 0.001\n"
                                 ).auto_tap is False


KNOWN_KEYS = [(section, key) for section, keys in _DEFAULTS.items()
              for key in keys]
KEY_VALUES = st.one_of(
    st.floats().map(repr),
    st.integers().map(str),
    st.sampled_from(["auto", "flat", "quantum", "classical", "gaussian",
                     "raised_cosine", "", "1e308", "-1e308", "nan"]),
    st.text(max_size=12),
)


def parses_or_config_error(text):
    try:
        cfg = parse_config_text(text)
    except ConfigError:
        return
    assert isinstance(cfg, RunConfig)


class TestConfigParsingProperty:
    """Any text parses to a RunConfig or raises ConfigError; parsing only."""

    @given(st.one_of(st.text(), st.builds("[{}]\n{}\n".format,
                                          st.sampled_from(sorted(_DEFAULTS)),
                                          st.text())))
    @settings(max_examples=300, deadline=None)
    def test_any_text(self, text):
        parses_or_config_error(text)

    @given(st.dictionaries(st.sampled_from(KNOWN_KEYS), KEY_VALUES))
    @settings(max_examples=400, deadline=None)
    def test_any_values_of_known_keys(self, values):
        sections = {}
        for (section, key), value in values.items():
            sections.setdefault(section, []).append(f"{key} = {value}")
        parses_or_config_error("".join(
            f"[{section}]\n" + "\n".join(lines) + "\n"
            for section, lines in sections.items()))


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
        cfg.write_text(f"[teleporter]\nff_gain_db = {value}\n"
                       "tap_reflectivity = 0.001\n")
        rc = main([command[0], str(cfg)] + command[1:]
                  + ["--out-dir", str(tmp_path / "b")])
        assert rc == 2
        assert "teleporter.ff_gain_db" in capsys.readouterr().err
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

    def test_unwritable_out_dir_error_path(self, cfg_file, tmp_path):
        # a file where the directory should go always fails, even as root
        blocker = tmp_path / "blocker"
        blocker.write_text("")
        rc = main(["spectrum", cfg_file, "--out-dir", str(blocker / "x")])
        assert rc == 3


class TestTimetraceCommand:
    def test_small_run(self, cfg_file, tmp_path, capsys):
        out = tmp_path / "t"
        rc = main(["timetrace", cfg_file, "--seed", "5", "--traces", "4",
                   "--out-dir", str(out)])
        assert rc == 0
        report = json.loads((out / "report.json").read_text())
        assert report["n_traces"] == 4
        assert report["n_modes"] == 4 * 47  # 2 ns / 42 ps = 47 modes per trace
        modes = np.genfromtxt(out / "modes.csv", delimiter=",", names=True)
        assert set(modes.dtype.names) == {"k", "x_k", "p_k", "in_x_k", "in_p_k"}
        trace0 = np.genfromtxt(out / "traces" / "trace_0000.csv",
                               delimiter=",", names=True)
        assert set(trace0.dtype.names) == {"t_ps", "x", "p", "in_x", "in_p"}
        assert verify_manifest(out)

    def test_byte_reproducible(self, cfg_file, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        for d in (a, b):
            assert main(["timetrace", cfg_file, "--seed", "9", "--traces", "3",
                         "--out-dir", str(d)]) == 0
        assert (a / "modes.csv").read_bytes() == (b / "modes.csv").read_bytes()
        assert (a / "report.json").read_bytes() == (b / "report.json").read_bytes()
        assert (a / "traces" / "trace_0001.csv").read_bytes() == \
            (b / "traces" / "trace_0001.csv").read_bytes()

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
        assert "teleporter.tap_reflectivity" in capsys.readouterr().err

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

    def test_rerun_with_fewer_traces_leaves_no_stale_files(self, cfg_file,
                                                           tmp_path):
        out = tmp_path / "t"
        for traces in ("6", "3"):
            assert main(["timetrace", cfg_file, "--seed", "1", "--traces",
                         traces, "--out-dir", str(out)]) == 0
        names = sorted(p.name for p in (out / "traces").iterdir())
        assert names == [f"trace_{i:04d}.csv" for i in range(3)]
        assert verify_manifest(out)

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


class TestCsvWriters:
    @staticmethod
    def expected(header, columns):
        rows = [",".join(f"{float(v):.17g}" for v in row) for row in zip(*columns)]
        return "".join(line + "\n" for line in [",".join(header)] + rows)

    def test_rows_are_17_digit_values(self, tmp_path):
        import cvteleport.cli as cli

        columns = [np.arange(7), [0.1, -0.0, 1e22, 2.5e-300, -1 / 3, 7.0, 1e-5],
                   np.linspace(-1.0, 1.0, 7)]
        path = tmp_path / "t.csv"
        cli.write_csv(path, ["a", "b", "c"], columns)
        assert path.read_text() == self.expected(["a", "b", "c"], columns)

    def test_rows_span_blocks(self, tmp_path):
        import cvteleport.cli as cli
        from cvteleport.csvfmt import BLOCK_VALUES

        rng = np.random.default_rng(5)
        n_rows = 2 * BLOCK_VALUES + 3
        columns = [np.arange(n_rows), rng.normal(size=n_rows)]
        path = tmp_path / "t.csv"
        cli.write_csv(path, ["k", "v"], columns)
        assert path.read_text() == self.expected(["k", "v"], columns)
        cli.write_csv(path, ["k", "v"], [[], []])
        assert path.read_text() == "k,v\n"

    def test_reference_batch_files(self, tmp_path):
        # the paper's run: 128 traces of 2048 samples and their modes.csv
        import cvteleport.cli as cli
        from cvteleport.timetrace import DT_PS, extract_modes, simulate_traces

        cfg = load_config(Path(__file__).resolve().parents[1] / "configs"
                          / "reference_quantum.cfg")
        tracks = cli.synth_random_coherent(cfg.source, 8.0, seed=(3, 2 ** 31))
        traces = simulate_traces(cfg.teleporter, tracks, n_traces=128, seed=3)
        t_ps = np.arange(traces.n_samples) * DT_PS
        paths = cli.write_trace_csvs(tmp_path, t_ps, traces)
        assert len(paths) == 128
        for path, x, p in zip(paths, traces.x_samples, traces.p_samples):
            columns = [t_ps, x, p, traces.input_mean_x, traces.input_mean_p]
            assert path.read_text() == self.expected(cli.TRACE_HEADER, columns)
        modes = extract_modes(traces, 42.0)
        columns = [modes.k, modes.x_k, modes.p_k, modes.in_x_k, modes.in_p_k]
        header = ["k", "x_k", "p_k", "in_x_k", "in_p_k"]
        cli.write_csv(tmp_path / "modes.csv", header, columns)
        assert (tmp_path / "modes.csv").read_text() == self.expected(header, columns)

    def test_trace_files_match_write_csv(self, tmp_path):
        import cvteleport.cli as cli
        from cvteleport.timetrace import TimeTrace

        rng = np.random.default_rng(3)
        traces = TimeTrace(rng.normal(size=(3, 50)), rng.normal(size=(3, 50)),
                           rng.normal(size=50), rng.normal(size=50))
        t_ps = np.arange(50) * 3.90625
        (tmp_path / "trace_0007.csv").write_text("stale\n")
        paths = cli.write_trace_csvs(tmp_path, t_ps, traces)
        assert [p.name for p in paths] == [f"trace_{i:04d}.csv" for i in range(3)]
        assert sorted(tmp_path.iterdir()) == paths
        for path, x, p in zip(paths, traces.x_samples, traces.p_samples):
            columns = [t_ps, x, p, traces.input_mean_x, traces.input_mean_p]
            assert path.read_text() == self.expected(cli.TRACE_HEADER, columns)


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
            point = dataclasses.replace(tcfg, tap_reflectivity=None,
                                        **{param: value})
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

    def test_explicit_tap_kept_at_every_point(self, tmp_path):
        # within the 1e-6 unity-gain tolerance, yet not the calibrated tap
        tap = repr(2.0 / (0.9 * 1e6) * (1 + 1e-7))
        cfg = tmp_path / "tap.cfg"
        cfg.write_text(QUANTUM_CFG.replace(
            "regime = quantum", f"regime = quantum\ntap_reflectivity = {tap}"))
        rc = main(["sweep", str(cfg), "--param", "n_sq", "--range", "0.1",
                   "1.0", "--points", "5", "--out-dir", str(tmp_path / "s")])
        assert rc == 0
        data = np.genfromtxt(tmp_path / "s" / "sweep_n_sq.csv", delimiter=",",
                             names=True)
        for value, circuit in zip(data["value"], data["circuit_n_out"]):
            point = TeleporterConfig(value, 0.9, 0.9, 60.0,
                                     tap_reflectivity=float(tap))
            _, _, vx, vp = quad_statistics(run_teleport(point, make_vacuum(1)), 0)
            assert circuit == 0.5 * (vx + vp)
        auto = self.reference_rows(load_config(cfg).teleporter, "n_sq",
                                   np.linspace(0.1, 1.0, 5))
        assert not np.array_equal(data["circuit_n_out"], auto[4])

    # 0.001 is far from unity gain at 60 dB; along eta_bell or the gain, even
    # the tap calibrated at the base point is off at the other points
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
        assert "teleporter.tap_reflectivity" in capsys.readouterr().err
        assert not (tmp_path / "s").exists()

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
        assert "14/14 checks passed" in out
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

    def test_corrupted_config_exit_2(self, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("[teleporter]\nn_sq = lots\n")
        assert main(["validate", str(cfg), "--level", "quick"]) == 2
