"""Command-line front end: experiment orchestration and persistence.

Exit codes: 0 success, 1 validation failure (a failed ``validate`` check,
or a run directory ``verify`` rejects), 2 configuration error, 3 I/O error
(any ``OSError`` but a closed stdout, which keeps the code; stderr reads
``i/o error: <message>``), 4 internal error (any other exception, which is
a defect; stderr reads ``internal error: <Type>: <message>``).

A data command (budget, spectrum, timetrace, sweep) runs in this order:
check ``--seed``; refuse an ``--out-dir`` that is a non-empty directory or
under a file (it, or its nearest existing ancestor, is not a directory), or
without one a ``CVTELEPORT_OUT_ROOT`` (default ``runs``) under a file; load
the config; stamp the start; compute; make the run directory; write the
data files, each writer hashing the bytes it writes; write the manifest
(config, master seed or null, tool version, those digests) atomically;
``main`` prints the summary. So a bad input exits 2 before any work, and a
failed write prints nothing. Only input-dependent stages relabel a
``ValueError`` as exit 2; elsewhere it is a defect, exit 4. Data files
(CSV/JSON/NPY) contain no timestamps, so identical seeds give
byte-identical outputs. CSV (only ``spectrum.csv`` and the sweeps) holds
``'%.17g' % value`` text; ``timetrace`` writes its samples and modes as
float64 ``.npy`` arrays.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import datetime
import functools
import hashlib
import io
import json
import os
import re
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .config import ConfigError, load_config
from .gaussian import make_vacuum, quad_statistics
from .spectral import (
    apply_measurement_jitter,
    default_grid,
    spectrum_report,
    synthesize_spectrum,
)
from .teleporter import (
    MIN_N_SQ,
    Regime,
    analytic_noise_budget,
    run_teleport,
)
from .timetrace import (
    estimate_report,
    extract_modes,
    max_traces,
    quantize_trace,
    simulate_traces,
    synth_random_coherent,
)

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_CONFIG = 2
EXIT_IO = 3
EXIT_INTERNAL = 4

OUT_ROOT_ENV = "CVTELEPORT_OUT_ROOT"

SWEEP_PARAMS = ("n_sq", "eta_bell", "eta_meas", "ff_gain_db")
# a sweep is one batch: each (points, 6, 6) circuit array stays under 3 MB
MAX_SWEEP_POINTS = 10_000
# rows formatted per write, so a spectrum.csv of up to 2 ** 20 rows never
# holds all of its text at once
CSV_BLOCK_ROWS = 2048
# every spelling float() reads after a minus sign; argparse's own pattern
# (-1, -.5) takes -1e1, -inf and -nan for options
_DIGITS = r"\d(?:_?\d)*"
NEGATIVE_FLOAT = re.compile(
    rf"-(?:(?:(?:{_DIGITS})?\.{_DIGITS}|{_DIGITS}\.?)(?:[eE][-+]?{_DIGITS})?"
    r"|(?ai:inf(?:inity)?|nan))\s*\Z")


def _utc_now() -> str:
    return datetime.datetime.now(datetime.timezone.utc).isoformat()


def refuse_under_file(path: Path, name: str) -> None:
    """Refuse ``path`` if it, or its nearest existing ancestor, is not a
    directory; ``name`` labels the error. Creates nothing."""
    for nearest in (path, *path.parents):
        if nearest.exists():
            if not nearest.is_dir():
                raise ConfigError(f"{name}: {nearest} is not a directory")
            return


def refuse_used_dir(path: Path) -> None:
    """A run writes into an empty directory, or a new one whose nearest
    existing ancestor is a directory; creates nothing."""
    if path.is_dir() and any(path.iterdir()):
        raise ConfigError(f"--out-dir: {path} is not empty")
    refuse_under_file(path, "--out-dir")


def out_root() -> Path:
    """Where a run without ``--out-dir`` makes its directory."""
    return Path(os.environ.get(OUT_ROOT_ENV, "runs"))


def make_out_dir(command: str, out_dir: str | None) -> Path:
    if out_dir is not None:
        path = Path(out_dir)
    else:
        stamp = datetime.datetime.now().strftime("%Y%m%dT%H%M%S%f")
        path = out_root() / f"{stamp}-{command}"
    path.mkdir(parents=True, exist_ok=True)
    refuse_used_dir(path)
    return path


def _write_hashed(path: Path, chunks) -> dict[Path, str]:
    """Write ``chunks`` of bytes to ``path``: ``{path: "sha256:<their hex>"}``."""
    digest = hashlib.sha256()
    with open(path, "wb") as fh:
        for chunk in chunks:
            digest.update(chunk)
            fh.write(chunk)
    return {path: f"sha256:{digest.hexdigest()}"}


def write_csv(path: Path, header: list[str], columns) -> dict[Path, str]:
    """``header``, then one row of ``'%.17g'`` values per row of ``columns``
    broadcast together (a scalar repeats; unequal lengths raise ValueError)."""
    columns = np.broadcast_arrays(*(np.asarray(c, dtype=float) for c in columns))
    n_rows = len(columns[0])
    row = ",".join(["%.17g"] * len(columns)) + "\n"

    def text():
        yield (",".join(header) + "\n").encode()
        for start in range(0, n_rows, CSV_BLOCK_ROWS):
            block = [c[start:start + CSV_BLOCK_ROWS].tolist() for c in columns]
            yield "".join(row % values for values in zip(*block)).encode()

    return _write_hashed(path, text())


def write_arrays(array_dir: Path, x, p, in_x, in_p) -> dict[Path, str]:
    """A new directory of ``x.npy`` and ``p.npy`` (one row per trace) and
    ``inputs.npy`` (rows ``in_x``, ``in_p``, which every trace shares): each
    ``np.save``'s header, then the C-contiguous array's own buffer."""
    array_dir.mkdir()
    digests = {}
    for name, a in (("x", x), ("p", p), ("inputs", np.stack([in_x, in_p]))):
        a, header = np.ascontiguousarray(a), io.BytesIO()
        np.lib.format.write_array_header_1_0(
            header, np.lib.format.header_data_from_array_1_0(a))
        digests |= _write_hashed(array_dir / f"{name}.npy",
                                 [header.getvalue(), memoryview(a)])
    return digests


def write_json(path: Path, payload: dict) -> dict[Path, str]:
    text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    return _write_hashed(path, [text.encode()])


def sha256_file(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


def run_outputs(out_dir: Path) -> dict[str, str]:
    """``sha256:`` digest of every file under ``out_dir`` but its manifest,
    by path relative to ``out_dir``."""
    return {str(p.relative_to(out_dir)): f"sha256:{sha256_file(p)}"
            for p in out_dir.rglob("*")
            if p.is_file() and p != out_dir / "manifest.json"}


def write_manifest(out_dir: Path, command: str, config_snapshot: dict,
                   seed, started: str, outputs: dict[Path, str]) -> Path:
    manifest = {
        "schema": 1,
        "command": command,
        "tool_version": __version__,
        "master_seed": seed,
        "config": config_snapshot,
        "started_utc": started,
        "finished_utc": _utc_now(),
        "outputs": {str(p.relative_to(out_dir)): d for p, d in outputs.items()},
    }
    final = out_dir / "manifest.json"
    tmp = out_dir / "manifest.json.tmp"
    write_json(tmp, manifest)
    os.replace(tmp, final)
    return final


def manifest_fault(out_dir: Path) -> str | None:
    """None if the manifest lists exactly the files in ``out_dir`` (apart
    from itself) and every recorded digest matches its file; otherwise the
    first fault, by file name."""
    out_dir = Path(out_dir)
    try:
        manifest = json.loads((out_dir / "manifest.json").read_text())
    except (FileNotFoundError, NotADirectoryError, IsADirectoryError, ValueError):
        return "manifest.json is missing or not JSON"
    listed = manifest.get("outputs") if isinstance(manifest, dict) else None
    if not isinstance(listed, dict):
        return "manifest.json has no outputs mapping"
    actual = run_outputs(out_dir)
    for name in sorted(listed.keys() | actual.keys()):
        if name not in actual:
            return f"missing file {name}"
        if name not in listed:
            return f"unlisted file {name}"
        if listed[name] != actual[name]:
            return f"altered file {name}"
    return None


def verify_manifest(out_dir: Path) -> bool:
    """True iff :func:`manifest_fault` finds no fault."""
    return manifest_fault(out_dir) is None


@contextlib.contextmanager
def _input_stage(name: str):
    """An input-dependent stage: its ValueError is a config error."""
    try:
        yield
    except ValueError as exc:
        raise ConfigError(f"{name}: {exc}") from None


def _run(compute, args):
    """A data command's run, in the module docstring's order, as every
    command's (exit code, stdout text or None). ``compute(cfg, args)``
    returns ``(writer, name, *data)`` calls and ``summary(out_dir)``."""
    if args.seed is not None and args.seed < 0:
        raise ConfigError(f"--seed: must be non-negative, got {args.seed}")
    if args.out_dir is not None:
        refuse_used_dir(Path(args.out_dir))
    else:
        refuse_under_file(out_root(), OUT_ROOT_ENV)
    cfg = load_config(args.config)
    started = _utc_now()
    files, summary = compute(cfg, args)
    out_dir = make_out_dir(args.command, args.out_dir)
    outputs = {}
    for writer, name, *data in files:
        outputs |= writer(out_dir / name, *data)
    write_manifest(out_dir, args.command, cfg.raw, args.seed, started, outputs)
    return EXIT_OK, summary(out_dir)


def _levels(r) -> str:  # a spectrum or timetrace report's summary
    return (f"raw ({r.vx_raw_db:+.3f}, {r.vp_raw_db:+.3f}) dB, intrinsic "
            f"({r.vx_int_db:+.3f}, {r.vp_int_db:+.3f}) dB, "
            f"F_raw = {r.f_raw:.4f}, F_int = {r.f_int:.4f}")


def compute_budget(cfg, args):
    payload = {"schema": 1}
    lines = []
    for regime in Regime:
        budget = analytic_noise_budget(
            dataclasses.replace(cfg.teleporter, regime=regime))
        payload[regime.value] = dataclasses.asdict(budget)
        lines.append(f"{regime.value:>9}: N_out = {budget.n_out:.4f} "
                     f"({budget.n_out_db:+.3f} dB), vacuum fidelity "
                     f"{budget.fidelity_vacuum:.4f}")
    return [(write_json, "budget.json", payload)], lambda _: "\n".join(lines)


def compute_spectrum(cfg, args):
    sp = cfg.spectrum
    with _input_stage("spectrum"):
        grid = default_grid(sp.grid_points, sp.band_edge_thz)
        record = synthesize_spectrum(cfg.teleporter, sp.profile(), grid)
        record = apply_measurement_jitter(record, sp.jitter_sigma_db,
                                          seed=args.seed)
        report = spectrum_report(record, cfg.teleporter.eta_meas,
                                 sp.exclude_below_thz, sp.band_edge_thz)
    plateau = analytic_noise_budget(
        dataclasses.replace(cfg.teleporter, n_sq=sp.n_sq_center))
    files = [(write_csv, "spectrum.csv", ["omega_thz", "vx_db", "vp_db"],
              [record.omega_thz, record.vx_db, record.vp_db]),
             (write_json, "report.json", {
                 "schema": 1, **dataclasses.asdict(report),
                 "regime": cfg.teleporter.regime.value,
                 "plateau_model_db": plateau.n_out_db,
                 "seed": args.seed,
                 "jitter_sigma_db": sp.jitter_sigma_db})]
    return files, lambda out_dir: f"spectrum: {_levels(report)}\nwrote {out_dir}"


def compute_timetrace(cfg, args):
    tt = cfg.timetrace
    # the parser has bounded the config's n_traces, so only --traces can fail
    n_traces = args.traces if args.traces is not None else tt.n_traces
    if not 1 <= n_traces <= max_traces(tt.duration_ns):
        raise ConfigError(f"--traces: must be between 1 and "
                          f"{max_traces(tt.duration_ns)}, got {n_traces}")
    with _input_stage("timetrace"):
        tracks = synth_random_coherent(cfg.source, tt.duration_ns,
                                       seed=(args.seed, 2 ** 31),
                                       window_ps=tt.window_ps)
        traces = simulate_traces(cfg.teleporter, tracks, n_traces=n_traces,
                                 seed=args.seed, window_ps=tt.window_ps)
    if tt.enob > 0:
        traces = quantize_trace(traces, tt.enob)
    modes = extract_modes(traces, tt.window_ps)
    with _input_stage("timetrace"):
        report = estimate_report(modes, cfg.teleporter.eta_meas)
    budget = analytic_noise_budget(cfg.teleporter)
    files = [(write_arrays, "traces", traces.x_samples, traces.p_samples,
              traces.input_mean_x, traces.input_mean_p),
             (write_arrays, "modes", modes.x, modes.p, modes.in_x, modes.in_p),
             (write_json, "report.json", {
                 "schema": 1, **dataclasses.asdict(report),
                 "regime": cfg.teleporter.regime.value,
                 "n_traces": n_traces,
                 "budget_n_out_db": budget.n_out_db,
                 "seed": args.seed,
                 "window_ps": tt.window_ps})]
    return files, lambda out_dir: (
        f"timetrace: {report.n_modes} modes, {_levels(report)} "
        f"(se {report.se_db:.3f} dB)\nwrote {out_dir}")


def compute_sweep(cfg, args):
    if args.param not in SWEEP_PARAMS:
        raise ConfigError(f"unknown sweep parameter {args.param!r}; "
                          f"choose from {SWEEP_PARAMS}")
    if not 1 <= args.points <= MAX_SWEEP_POINTS:
        raise ConfigError(f"sweep --points: must be between 1 and "
                          f"{MAX_SWEEP_POINTS}, got {args.points}")
    lo, hi = args.range
    if not np.isfinite([lo, hi]).all():
        raise ConfigError(f"sweep --range: MIN and MAX must be finite, got "
                          f"{lo} {hi}")
    values = np.linspace(lo, hi, args.points)
    if args.param == "n_sq" and values.min() < MIN_N_SQ:
        raise ConfigError(f"teleporter.n_sq: must be at least {MIN_N_SQ}, got "
                          f"{values.min()}")
    with _input_stage(f"teleporter.{args.param}"):
        tcfg = dataclasses.replace(cfg.teleporter, **{args.param: values})
    out = run_teleport(tcfg, make_vacuum(1))
    budget = analytic_noise_budget(tcfg)
    _, _, vx, vp = quad_statistics(out, 0)
    circuit = 0.5 * (vx + vp)
    columns = {"value": values, **dataclasses.asdict(budget),
               "circuit_n_out": circuit, "circuit_n_out_db": 10 * np.log10(circuit)}
    name = f"sweep_{args.param}.csv"
    # a column the swept parameter does not enter is one number for all rows
    files = [(write_csv, name, list(columns),
              [np.broadcast_to(c, values.shape) for c in columns.values()])]
    return files, lambda out_dir: (
        f"swept {args.param} over [{lo}, {hi}] ({args.points} points); "
        f"wrote {out_dir / name}")


def cmd_validate(args):
    # only validate loads the Fock oracle and the OPA model
    from .validate import run_validation

    if args.config is not None:
        load_config(args.config)  # config is only checked for validity here
    results = run_validation(args.level)
    failed = [r for r in results if not r.passed]
    lines = [f"[{'PASS' if r.passed else 'FAIL'}] {r.name} ({r.elapsed_s:.2f}s)"
             + ("" if r.passed else f": {r.detail}") for r in results]
    lines.append(f"{len(results) - len(failed)}/{len(results)} checks passed "
                 f"(level={args.level})")
    return EXIT_OK if not failed else EXIT_VALIDATION, "\n".join(lines)


def cmd_verify(args):
    fault = manifest_fault(args.run_dir)
    if fault is not None:
        print(f"{args.run_dir}: {fault}", file=sys.stderr)
        return EXIT_VALIDATION, None
    return EXIT_OK, f"{args.run_dir}: manifest verified"


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built on the first call and shared by every
    later one: ``parse_args`` fills a new namespace each time. Each
    ``set_defaults(func=...)`` binds its handler, or a data command's
    ``compute_*``, as it was at that first build."""
    parser = argparse.ArgumentParser(
        prog="cvteleport",
        description="Simulate broadband all-optical CV teleportation: noise "
                    "budgets, sideband spectra, and picosecond wavepacket "
                    "statistics.")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("budget", help="analytic noise budget and fidelities")
    p.add_argument("config")
    p.add_argument("--out-dir", default=None)
    # no --seed: the manifest's master_seed is null
    p.set_defaults(func=functools.partial(_run, compute_budget), seed=None)

    p = sub.add_parser("spectrum", help="sideband spectrum of teleported vacuum")
    p.add_argument("config")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out-dir", default=None)
    p.set_defaults(func=functools.partial(_run, compute_spectrum))

    p = sub.add_parser("timetrace", help="real-time wavepacket teleportation")
    p.add_argument("config")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--traces", type=int, default=None)
    p.add_argument("--out-dir", default=None)
    p.set_defaults(func=functools.partial(_run, compute_timetrace))

    p = sub.add_parser("sweep", help="noise budget across a parameter range")
    p._negative_number_matcher = NEGATIVE_FLOAT  # --range -1e1 70
    p.add_argument("config")
    p.add_argument("--param", required=True)
    p.add_argument("--range", nargs=2, type=float, required=True,
                   metavar=("MIN", "MAX"))
    p.add_argument("--points", type=int, default=41)
    p.add_argument("--out-dir", default=None)
    p.set_defaults(func=functools.partial(_run, compute_sweep), seed=None)

    p = sub.add_parser("validate", help="oracle cross-checks and invariants")
    p.add_argument("config", nargs="?", default=None)
    p.add_argument("--level", choices=("quick", "full"), default="quick")
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("verify", help="check a run directory against its manifest")
    p.add_argument("run_dir")
    p.set_defaults(func=cmd_verify)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        code, summary = args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO
    except Exception as exc:
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    try:
        if summary is not None:
            print(summary, flush=True)
    except BrokenPipeError:
        # closed early by its reader (| head): drop the rest, keep the code
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    return code


if __name__ == "__main__":
    sys.exit(main())
