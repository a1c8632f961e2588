"""Command-line front end: experiment orchestration and persistence.

Exit codes: 0 success, 1 validation failure, 2 configuration error,
3 I/O error, 4 internal error (any other exception, which is a defect;
stderr reads ``internal error: <Type>: <message>``). Every run writes its
data files plus a manifest carrying the config snapshot, master seed, tool
version and sha256 digests of the emitted files; the manifest is written
atomically last. Data files (CSV/JSON) contain no timestamps, so identical
seeds give byte-identical outputs. Every number in a CSV file is written as
``'%.17g' % value`` (see :mod:`cvteleport.csvfmt`).
"""

from __future__ import annotations

import argparse
import dataclasses
import datetime
import hashlib
import json
import os
import sys
from pathlib import Path

import numpy as np

from . import __version__, csvfmt
from .config import ConfigError, load_config
from .gaussian import make_vacuum, quad_statistics
from .spectral import (
    apply_measurement_jitter,
    default_grid,
    spectrum_report,
    synthesize_spectrum,
)
from .teleporter import (
    CalibrationError,
    Regime,
    TeleporterConfig,
    analytic_noise_budget,
    run_teleport,
)
from .timetrace import (
    DT_PS,
    estimate_report,
    extract_modes,
    max_traces,
    quantize_trace,
    simulate_traces,
    synth_random_coherent,
)
from .validate import run_validation

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_CONFIG = 2
EXIT_IO = 3
EXIT_INTERNAL = 4

OUT_ROOT_ENV = "CVTELEPORT_OUT_ROOT"

SWEEP_PARAMS = ("n_sq", "eta_bell", "eta_meas", "ff_gain_db")
# a sweep is one batch: each (points, 6, 6) circuit array stays under 3 MB
MAX_SWEEP_POINTS = 10_000

TRACE_HEADER = ["t_ps", "x", "p", "in_x", "in_p"]


class OutputError(Exception):
    pass


def _utc_now() -> str:
    return datetime.datetime.now(datetime.timezone.utc).isoformat()


def make_out_dir(command: str, out_dir: str | None) -> Path:
    if out_dir is not None:
        path = Path(out_dir)
    else:
        root = Path(os.environ.get(OUT_ROOT_ENV, "runs"))
        stamp = datetime.datetime.now().strftime("%Y%m%dT%H%M%S%f")
        path = root / f"{stamp}-{command}"
    try:
        path.mkdir(parents=True, exist_ok=True)
        probe = path / ".write-probe"
        probe.write_text("")
        probe.unlink()
    except OSError as exc:
        raise OutputError(f"cannot write to output directory {path}: {exc}")
    return path


def _write_blocks(path: Path, header: list[str], blocks,
                  append: bool = False) -> None:
    """Write the CSV rows of each block of :func:`csvfmt.fields` columns to
    ``path``: to a new file after ``header``, or appended."""
    try:
        with open(path, "ab" if append else "wb") as fh:
            if not append:
                fh.write((",".join(header) + "\n").encode("utf-8"))
            for columns in blocks:
                fh.write(csvfmt.rows(columns))
    except OSError as exc:
        raise OutputError(f"cannot write {path}: {exc}")


def write_csv(path: Path, header: list[str], columns) -> None:
    """``header``, then one row of ``'%.17g'`` values per row of ``columns``."""
    n_rows = min(len(c) for c in columns)
    columns = [np.asarray(c, dtype=float)[:n_rows] for c in columns]
    step = max(1, csvfmt.BLOCK_VALUES // len(columns))  # rows per block
    blocks = (csvfmt.fields([c[start:start + step] for c in columns])
              for start in range(0, n_rows, step))
    _write_blocks(path, header, blocks)


def write_trace_csvs(trace_dir: Path, t_ps, traces) -> list[Path]:
    """``trace_NNNN.csv`` (``TRACE_HEADER`` columns) for each trace of the batch.

    The files read as :func:`write_csv` writes them; the ``t_ps``, ``in_x``
    and ``in_p`` text they all share is formatted once per block of rows,
    and any ``trace_*.csv`` in ``trace_dir`` beyond this batch is deleted.
    """
    paths = [trace_dir / f"trace_{i:04d}.csv" for i in range(len(traces.x_samples))]
    shared = [np.asarray(t_ps, dtype=float), traces.input_mean_x, traces.input_mean_p]
    for start in range(0, traces.n_samples, csvfmt.BLOCK_VALUES):
        block = slice(start, start + csvfmt.BLOCK_VALUES)
        t, in_x, in_p = csvfmt.fields([c[block] for c in shared])
        for path, x, p in zip(paths, traces.x_samples, traces.p_samples):
            x, p = csvfmt.fields(x[block]), csvfmt.fields(p[block])
            _write_blocks(path, TRACE_HEADER, [(t, x, p, in_x, in_p)],
                          append=start > 0)
    for stale in set(trace_dir.glob("trace_*.csv")) - set(paths):
        try:
            stale.unlink()
        except OSError as exc:
            raise OutputError(f"cannot remove stale {stale}: {exc}")
    return paths


def write_json(path: Path, payload: dict) -> None:
    try:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            json.dump(payload, fh, indent=2, sort_keys=True)
            fh.write("\n")
    except OSError as exc:
        raise OutputError(f"cannot write {path}: {exc}")


def sha256_file(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


def write_manifest(out_dir: Path, command: str, config_snapshot: dict,
                   seed, started: str, outputs: list[Path]) -> Path:
    manifest = {
        "schema": 1,
        "command": command,
        "tool_version": __version__,
        "master_seed": seed,
        "config": config_snapshot,
        "started_utc": started,
        "finished_utc": _utc_now(),
        "outputs": {str(p.relative_to(out_dir)): f"sha256:{sha256_file(p)}"
                    for p in outputs},
    }
    final = out_dir / "manifest.json"
    tmp = out_dir / "manifest.json.tmp"
    write_json(tmp, manifest)
    os.replace(tmp, final)
    return final


def verify_manifest(out_dir: Path) -> bool:
    """True iff the manifest lists exactly the files in ``out_dir`` (apart
    from itself) and every recorded digest matches its file."""
    out_dir = Path(out_dir)
    try:
        manifest = json.loads((out_dir / "manifest.json").read_text())
    except (FileNotFoundError, ValueError):  # ValueError: not JSON text
        return False
    outputs = manifest.get("outputs") if isinstance(manifest, dict) else None
    if not isinstance(outputs, dict):
        return False
    present = {str(p.relative_to(out_dir)) for p in out_dir.rglob("*")
               if p.is_file()} - {"manifest.json"}
    if present != set(outputs):
        return False
    for name, digest in outputs.items():
        if f"sha256:{sha256_file(out_dir / name)}" != digest:
            return False
    return True


def _report_payload(report, extra: dict) -> dict:
    return {"schema": 1, **dataclasses.asdict(report), **extra}


def _budget_payload(cfg: TeleporterConfig) -> dict:
    payload = {"schema": 1}
    for regime in Regime:
        budget = analytic_noise_budget(dataclasses.replace(cfg, regime=regime))
        payload[regime.value] = dataclasses.asdict(budget)
    return payload


def cmd_budget(args) -> int:
    cfg = load_config(args.config)
    payload = _budget_payload(cfg.teleporter)
    started = _utc_now()
    for regime in Regime:
        entry = payload[regime.value]
        print(f"{regime.value:>9}: N_out = {entry['n_out']:.4f} "
              f"({entry['n_out_db']:+.3f} dB), vacuum fidelity "
              f"{entry['fidelity_vacuum']:.4f}")
    out_dir = make_out_dir("budget", args.out_dir)
    report = out_dir / "budget.json"
    write_json(report, payload)
    write_manifest(out_dir, "budget", cfg.raw, None, started, [report])
    return EXIT_OK


def cmd_spectrum(args) -> int:
    cfg = load_config(args.config)
    started = _utc_now()
    sp = cfg.spectrum
    grid = default_grid(sp.grid_points, sp.band_edge_thz)
    record = synthesize_spectrum(cfg.teleporter, sp.profile(), grid)
    record = apply_measurement_jitter(record, sp.jitter_sigma_db, seed=args.seed)
    report = spectrum_report(record, cfg.teleporter.eta_meas,
                             sp.exclude_below_thz, sp.band_edge_thz)
    out_dir = make_out_dir("spectrum", args.out_dir)
    csv_path = out_dir / "spectrum.csv"
    write_csv(csv_path, ["omega_thz", "vx_db", "vp_db"],
              [record.omega_thz, record.vx_db, record.vp_db])
    plateau = analytic_noise_budget(
        dataclasses.replace(cfg.teleporter, n_sq=sp.n_sq_center))
    json_path = out_dir / "report.json"
    write_json(json_path, _report_payload(report, {
        "regime": cfg.teleporter.regime.value,
        "plateau_model_db": plateau.n_out_db,
        "seed": args.seed,
        "jitter_sigma_db": sp.jitter_sigma_db,
    }))
    write_manifest(out_dir, "spectrum", cfg.raw, args.seed, started,
                   [csv_path, json_path])
    print(f"spectrum: raw ({report.vx_raw_db:+.3f}, {report.vp_raw_db:+.3f}) dB, "
          f"intrinsic ({report.vx_int_db:+.3f}, {report.vp_int_db:+.3f}) dB, "
          f"F_raw = {report.f_raw:.4f}, F_int = {report.f_int:.4f}")
    print(f"wrote {out_dir}")
    return EXIT_OK


def cmd_timetrace(args) -> int:
    cfg = load_config(args.config)
    started = _utc_now()
    tt = cfg.timetrace
    # the parser has bounded the config's n_traces, so only --traces can fail
    n_traces = args.traces if args.traces is not None else tt.n_traces
    if not 1 <= n_traces <= max_traces(tt.duration_ns):
        raise ConfigError(f"--traces: must be between 1 and "
                          f"{max_traces(tt.duration_ns)}, got {n_traces}")
    try:
        tracks = synth_random_coherent(cfg.source, tt.duration_ns,
                                       seed=(args.seed, 2 ** 31),
                                       window_ps=tt.window_ps)
        traces = simulate_traces(cfg.teleporter, tracks, n_traces=n_traces,
                                 seed=args.seed, window_ps=tt.window_ps)
    except CalibrationError as exc:
        raise ConfigError(f"teleporter.tap_reflectivity: {exc}; "
                          "set it to auto") from None
    except ValueError as exc:
        raise ConfigError(f"timetrace: {exc}") from None
    if tt.enob > 0:
        traces = quantize_trace(traces, tt.enob)
    modes = extract_modes(traces, tt.window_ps)
    try:
        report = estimate_report(modes, cfg.teleporter.eta_meas)
    except ValueError as exc:
        raise ConfigError(f"timetrace: {exc}") from None

    out_dir = make_out_dir("timetrace", args.out_dir)
    trace_dir = out_dir / "traces"
    trace_dir.mkdir(exist_ok=True)
    outputs = write_trace_csvs(trace_dir, np.arange(traces.n_samples) * DT_PS,
                               traces)
    modes_path = out_dir / "modes.csv"
    write_csv(modes_path, ["k", "x_k", "p_k", "in_x_k", "in_p_k"],
              [modes.k, modes.x_k, modes.p_k, modes.in_x_k, modes.in_p_k])
    outputs.append(modes_path)
    budget = analytic_noise_budget(cfg.teleporter)
    json_path = out_dir / "report.json"
    write_json(json_path, _report_payload(report, {
        "regime": cfg.teleporter.regime.value,
        "n_traces": n_traces,
        "budget_n_out_db": budget.n_out_db,
        "seed": args.seed,
        "window_ps": tt.window_ps,
    }))
    outputs.append(json_path)
    write_manifest(out_dir, "timetrace", cfg.raw, args.seed, started, outputs)
    print(f"timetrace: {report.n_modes} modes, raw ({report.vx_raw_db:+.3f}, "
          f"{report.vp_raw_db:+.3f}) dB, intrinsic ({report.vx_int_db:+.3f}, "
          f"{report.vp_int_db:+.3f}) dB, F_raw = {report.f_raw:.4f}, "
          f"F_int = {report.f_int:.4f} (se {report.se_db:.3f} dB)")
    print(f"wrote {out_dir}")
    return EXIT_OK


def cmd_sweep(args) -> int:
    cfg = load_config(args.config)
    started = _utc_now()
    if args.param not in SWEEP_PARAMS:
        raise ConfigError(f"unknown sweep parameter {args.param!r}; "
                          f"choose from {SWEEP_PARAMS}")
    if not 1 <= args.points <= MAX_SWEEP_POINTS:
        raise ConfigError(f"sweep --points: must be between 1 and "
                          f"{MAX_SWEEP_POINTS}, got {args.points}")
    lo, hi = args.range
    values = np.linspace(lo, hi, args.points)
    # an explicit tap stays fixed at every point; an auto tap is calibrated
    tap = None if cfg.auto_tap else cfg.teleporter.tap_reflectivity
    try:
        tcfg = dataclasses.replace(cfg.teleporter, tap_reflectivity=tap,
                                   **{args.param: values})
    except ValueError as exc:
        raise ConfigError(f"teleporter.{args.param}: {exc}")
    try:
        out = run_teleport(tcfg, make_vacuum(1))
    except CalibrationError:
        raise ConfigError("teleporter.tap_reflectivity: not at unity gain at "
                          "every sweep point; set it to auto") from None
    budget = analytic_noise_budget(tcfg)
    _, _, vx, vp = quad_statistics(out, 0)
    circuit = 0.5 * (vx + vp)
    columns = {"value": values, **dataclasses.asdict(budget),
               "circuit_n_out": circuit, "circuit_n_out_db": 10 * np.log10(circuit)}
    out_dir = make_out_dir("sweep", args.out_dir)
    csv_path = out_dir / f"sweep_{args.param}.csv"
    # a column the swept parameter does not enter is one number for all rows
    write_csv(csv_path, list(columns),
              [np.broadcast_to(c, values.shape) for c in columns.values()])
    write_manifest(out_dir, "sweep", cfg.raw, None, started, [csv_path])
    print(f"swept {args.param} over [{lo}, {hi}] ({args.points} points); "
          f"wrote {csv_path}")
    return EXIT_OK


def cmd_validate(args) -> int:
    if args.config is not None:
        load_config(args.config)  # config is only checked for validity here
    results = run_validation(args.level)
    failed = [r for r in results if not r.passed]
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        line = f"[{status}] {r.name} ({r.elapsed_s:.2f}s)"
        if not r.passed:
            line += f": {r.detail}"
        print(line)
    print(f"{len(results) - len(failed)}/{len(results)} checks passed "
          f"(level={args.level})")
    return EXIT_OK if not failed else EXIT_VALIDATION


def build_parser() -> argparse.ArgumentParser:
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
    p.set_defaults(func=cmd_budget)

    p = sub.add_parser("spectrum", help="sideband spectrum of teleported vacuum")
    p.add_argument("config")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out-dir", default=None)
    p.set_defaults(func=cmd_spectrum)

    p = sub.add_parser("timetrace", help="real-time wavepacket teleportation")
    p.add_argument("config")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--traces", type=int, default=None)
    p.add_argument("--out-dir", default=None)
    p.set_defaults(func=cmd_timetrace)

    p = sub.add_parser("sweep", help="noise budget across a parameter range")
    p.add_argument("config")
    p.add_argument("--param", required=True)
    p.add_argument("--range", nargs=2, type=float, required=True,
                   metavar=("MIN", "MAX"))
    p.add_argument("--points", type=int, default=41)
    p.add_argument("--out-dir", default=None)
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("validate", help="oracle cross-checks and invariants")
    p.add_argument("config", nargs="?", default=None)
    p.add_argument("--level", choices=("quick", "full"), default="quick")
    p.set_defaults(func=cmd_validate)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if getattr(args, "seed", 0) < 0:  # spectrum and timetrace take --seed
            raise ConfigError(f"--seed: must be non-negative, got {args.seed}")
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except OutputError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO
    except Exception as exc:
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
