"""Command-line front end: experiment orchestration and persistence.

Exit codes: 0 success, 1 validation failure (a failed ``validate`` check,
or a run directory ``verify`` rejects), 2 configuration error,
3 I/O error (any ``OSError``; stderr reads ``i/o error: <message>``),
4 internal error (any other exception, which is a defect; stderr reads
``internal error: <Type>: <message>``). A run writes into a new or empty
directory (a non-empty ``--out-dir`` is a configuration error, raised before
any computation): its data files, then a manifest carrying the config
snapshot, master seed, tool version and the sha256 digest of every other
file in the directory, written atomically last. Data files (CSV/JSON/NPY)
contain no timestamps, so identical seeds give byte-identical outputs.
CSV (only ``spectrum.csv`` and the sweeps) holds ``'%.17g' % value`` text;
``timetrace`` writes its samples and modes as float64 ``.npy`` arrays.
"""

from __future__ import annotations

import argparse
import dataclasses
import datetime
import functools
import hashlib
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
    TeleporterConfig,
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


def refuse_used_dir(path: Path) -> None:
    """A run writes into a new or empty directory; creates nothing."""
    if path.is_dir() and any(path.iterdir()):
        raise ConfigError(f"--out-dir: {path} is not empty")


def make_out_dir(command: str, out_dir: str | None) -> Path:
    if out_dir is not None:
        path = Path(out_dir)
    else:
        root = Path(os.environ.get(OUT_ROOT_ENV, "runs"))
        stamp = datetime.datetime.now().strftime("%Y%m%dT%H%M%S%f")
        path = root / f"{stamp}-{command}"
    path.mkdir(parents=True, exist_ok=True)
    refuse_used_dir(path)
    return path


def write_csv(path: Path, header: list[str], columns) -> None:
    """``header``, then one row of ``'%.17g'`` values per row of ``columns``
    broadcast together (a scalar repeats; unequal lengths raise ValueError)."""
    columns = np.broadcast_arrays(*(np.asarray(c, dtype=float) for c in columns))
    n_rows = len(columns[0])
    row = ",".join(["%.17g"] * len(columns)) + "\n"
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        for start in range(0, n_rows, CSV_BLOCK_ROWS):
            block = [c[start:start + CSV_BLOCK_ROWS].tolist() for c in columns]
            fh.write("".join(row % values for values in zip(*block)))


def write_arrays(array_dir: Path, x, p, in_x, in_p) -> None:
    """A new directory of ``x.npy`` and ``p.npy`` (one row per trace) and
    ``inputs.npy`` (rows ``in_x``, ``in_p``, which every trace shares)."""
    array_dir.mkdir()
    np.save(array_dir / "x.npy", x)
    np.save(array_dir / "p.npy", p)
    np.save(array_dir / "inputs.npy", np.stack([in_x, in_p]))


def write_json(path: Path, payload: dict) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


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
                   seed, started: str) -> Path:
    manifest = {
        "schema": 1,
        "command": command,
        "tool_version": __version__,
        "master_seed": seed,
        "config": config_snapshot,
        "started_utc": started,
        "finished_utc": _utc_now(),
        "outputs": run_outputs(out_dir),
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
    except (FileNotFoundError, ValueError):  # ValueError: not JSON text
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
    write_json(out_dir / "budget.json", payload)
    write_manifest(out_dir, "budget", cfg.raw, None, started)
    return EXIT_OK


def cmd_spectrum(args) -> int:
    cfg = load_config(args.config)
    started = _utc_now()
    sp = cfg.spectrum
    try:
        grid = default_grid(sp.grid_points, sp.band_edge_thz)
        record = synthesize_spectrum(cfg.teleporter, sp.profile(), grid)
        record = apply_measurement_jitter(record, sp.jitter_sigma_db,
                                          seed=args.seed)
        report = spectrum_report(record, cfg.teleporter.eta_meas,
                                 sp.exclude_below_thz, sp.band_edge_thz)
    except ValueError as exc:
        raise ConfigError(f"spectrum: {exc}") from None
    out_dir = make_out_dir("spectrum", args.out_dir)
    write_csv(out_dir / "spectrum.csv", ["omega_thz", "vx_db", "vp_db"],
              [record.omega_thz, record.vx_db, record.vp_db])
    plateau = analytic_noise_budget(
        dataclasses.replace(cfg.teleporter, n_sq=sp.n_sq_center))
    write_json(out_dir / "report.json", _report_payload(report, {
        "regime": cfg.teleporter.regime.value,
        "plateau_model_db": plateau.n_out_db,
        "seed": args.seed,
        "jitter_sigma_db": sp.jitter_sigma_db,
    }))
    write_manifest(out_dir, "spectrum", cfg.raw, args.seed, started)
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
    write_arrays(out_dir / "traces", traces.x_samples, traces.p_samples,
                 traces.input_mean_x, traces.input_mean_p)
    write_arrays(out_dir / "modes", modes.x, modes.p, modes.in_x, modes.in_p)
    budget = analytic_noise_budget(cfg.teleporter)
    write_json(out_dir / "report.json", _report_payload(report, {
        "regime": cfg.teleporter.regime.value,
        "n_traces": n_traces,
        "budget_n_out_db": budget.n_out_db,
        "seed": args.seed,
        "window_ps": tt.window_ps,
    }))
    write_manifest(out_dir, "timetrace", cfg.raw, args.seed, started)
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
    if not np.isfinite([lo, hi]).all():
        raise ConfigError(f"sweep --range: MIN and MAX must be finite, got "
                          f"{lo} {hi}")
    values = np.linspace(lo, hi, args.points)
    if args.param == "n_sq" and values.min() < MIN_N_SQ:
        raise ConfigError(f"teleporter.n_sq: must be at least {MIN_N_SQ}, got "
                          f"{values.min()}")
    try:
        tcfg = dataclasses.replace(cfg.teleporter, **{args.param: values})
    except ValueError as exc:
        raise ConfigError(f"teleporter.{args.param}: {exc}")
    out = run_teleport(tcfg, make_vacuum(1))
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
    write_manifest(out_dir, "sweep", cfg.raw, None, started)
    print(f"swept {args.param} over [{lo}, {hi}] ({args.points} points); "
          f"wrote {csv_path}")
    return EXIT_OK


def cmd_validate(args) -> int:
    # only validate loads the Fock oracle and the OPA model
    from .validate import run_validation

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


def cmd_verify(args) -> int:
    fault = manifest_fault(args.run_dir)
    if fault is not None:
        print(f"{args.run_dir}: {fault}", file=sys.stderr)
        return EXIT_VALIDATION
    print(f"{args.run_dir}: manifest verified")
    return EXIT_OK


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built on the first call and shared by every
    later one: ``parse_args`` fills a new namespace each time. Each
    ``set_defaults(func=cmd_*)`` binds its handler as it was at that first
    build."""
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
    p._negative_number_matcher = NEGATIVE_FLOAT  # --range -1e1 70
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

    p = sub.add_parser("verify", help="check a run directory against its manifest")
    p.add_argument("run_dir")
    p.set_defaults(func=cmd_verify)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if getattr(args, "seed", 0) < 0:  # spectrum and timetrace take --seed
            raise ConfigError(f"--seed: must be non-negative, got {args.seed}")
        if getattr(args, "out_dir", None) is not None:  # refuse before computing
            refuse_used_dir(Path(args.out_dir))
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO
    except Exception as exc:
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
