"""The benchmark's workloads: the CLI operations each one runs and the
correctness gate every operation must pass.

An op is one ``cvteleport.cli.main`` call or a fixed batch of them. Its
inputs come only from the workload seed: op ``i`` gets ``op_seed(seed, i)``.
"""

from __future__ import annotations

import contextlib
import functools
import hashlib
import io
import json
import math
import random
import re
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

from cvteleport import cli, fock, gaussian  # noqa: E402

QUANTUM_CFG = str(ROOT / "configs" / "reference_quantum.cfg")
CLASSICAL_CFG = str(ROOT / "configs" / "reference_classical.cfg")

# Paper anchors, derived here from the reference parameters (n_sq = 0.178,
# eta_bell = eta_meas = 0.9) so the gate does not trust the code it checks.
ETA = 0.9
N_OUT_QUANTUM = ETA * (1 + 2 * 0.178 + 2 * (1 - ETA) / ETA) + (1 - ETA)
INTRINSIC_QUANTUM_DB = 10 * math.log10((N_OUT_QUANTUM - (1 - ETA)) / ETA)
F_INT_SPECTRUM = {QUANTUM_CFG: 0.784, CLASSICAL_CFG: 2 / (1 + (3 - (1 - ETA)) / ETA)}
N_MODES_REF = 128 * 190

SWEEPS = (("n_sq", "0.05", "1.0"), ("eta_bell", "0.5", "1.0"),
          ("eta_meas", "0.5", "1.0"), ("ff_gain_db", "40", "70"))
SWEEP_POINTS = 41

WORKLOADS = ("timetrace-ref", "validate-full", "analytic-sweep")


class GateFailure(Exception):
    """An op's output failed a correctness check."""


def _require(ok: bool, message: str) -> None:
    if not ok:
        raise GateFailure(message)


def op_seed(seed: int, index: int) -> int:
    """The ``--seed`` of op ``index`` in a run with workload seed ``seed``."""
    return random.Random(f"{seed}:{index}").randrange(2 ** 31)


def _read_json(path: Path) -> dict:
    return json.loads(path.read_text(encoding="utf-8"))


def check_timetrace(out_dir: Path, stdout: str) -> None:
    report = _read_json(out_dir / "report.json")
    _require(report["n_traces"] == 128, f"n_traces {report['n_traces']}")
    _require(report["n_modes"] == N_MODES_REF, f"n_modes {report['n_modes']}")
    for key in ("vx_int_db", "vp_int_db"):
        z = (report[key] - INTRINSIC_QUANTUM_DB) / report["se_db"]
        _require(abs(z) <= 5.0, f"{key} {report[key]:.4f} dB is {z:+.2f} se "
                                f"from {INTRINSIC_QUANTUM_DB:.4f} dB")


def check_budget(out_dir: Path, stdout: str) -> None:
    payload = _read_json(out_dir / "budget.json")
    n_q = payload["quantum"]["n_out"]
    n_c = payload["classical"]["n_out"]
    _require(abs(n_q - 1.52) <= 0.005, f"quantum N_out {n_q}")
    _require(abs(n_c - 3.00) <= 1e-12, f"classical N_out {n_c}")


def check_spectrum(out_dir: Path, stdout: str, f_int: float) -> None:
    report = _read_json(out_dir / "report.json")
    plateau = report["plateau_model_db"]
    gap = max(abs(report["vx_raw_db"] - plateau), abs(report["vp_raw_db"] - plateau))
    _require(gap <= 0.02, f"plateau gap {gap:.4f} dB")
    _require(abs(report["f_int"] - f_int) <= 0.005,
             f"F_int {report['f_int']:.4f}, expected {f_int:.4f}")


def check_sweep(out_dir: Path, stdout: str, param: str, lo: str, hi: str) -> None:
    data = np.genfromtxt(out_dir / f"sweep_{param}.csv", delimiter=",", names=True)
    _require(data.size == SWEEP_POINTS, f"{data.size} sweep rows")
    _require(data["value"][0] == float(lo) and data["value"][-1] == float(hi),
             "sweep range")
    rel = np.abs(data["circuit_n_out"] - data["n_out"]) / data["n_out"]
    _require(bool(np.all(rel < 1e-3)), f"circuit vs budget {rel.max():.2e}")


def check_validate(out_dir, stdout: str) -> None:
    match = re.search(r"(\d+)/(\d+) checks passed", stdout)
    _require(match is not None and match[1] == match[2],
             f"validate summary {match[0] if match else stdout[-200:]!r}")


def commands(workload: str, seed: int, out: Path):
    """The (argv, out_dir, check) triples that make up one op."""
    if workload == "timetrace-ref":
        return [(["timetrace", QUANTUM_CFG, "--seed", str(seed),
                  "--out-dir", str(out / "0")], out / "0", check_timetrace)]
    if workload == "validate-full":
        return [(["validate", "--level", "full"], None, check_validate)]
    if workload == "analytic-sweep":
        cmds = []
        for cfg in (QUANTUM_CFG, CLASSICAL_CFG):
            d = out / str(len(cmds))
            cmds.append((["budget", cfg, "--out-dir", str(d)], d, check_budget))
            d = out / str(len(cmds))
            cmds.append((["spectrum", cfg, "--seed", str(seed), "--out-dir", str(d)],
                         d, functools.partial(check_spectrum, f_int=F_INT_SPECTRUM[cfg])))
            for param, lo, hi in SWEEPS:
                d = out / str(len(cmds))
                cmds.append((["sweep", cfg, "--param", param, "--range", lo, hi,
                              "--points", str(SWEEP_POINTS), "--out-dir", str(d)],
                             d, functools.partial(check_sweep, param=param, lo=lo, hi=hi)))
        return cmds
    raise ValueError(f"unknown workload {workload!r}")


def run_op(cmds) -> tuple[float, list[tuple[int | None, str]]]:
    """Run one op's commands back to back; returns wall time and (rc, stdout)."""
    results = []
    start = time.perf_counter()
    for argv, _, _ in cmds:
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            try:
                rc = cli.main(argv)
            except (Exception, SystemExit):
                traceback.print_exc()
                rc = None
        results.append((rc, buf.getvalue()))
    return time.perf_counter() - start, results


def check_op(cmds, results) -> list[str]:
    """Failure reasons of one op; empty when every command passes the gate."""
    failures = []
    for (argv, out_dir, check), (rc, stdout) in zip(cmds, results):
        try:
            _require(rc == 0, f"exit code {rc}")
            if out_dir is not None:
                _require(cli.verify_manifest(out_dir), "manifest does not verify")
            check(out_dir, stdout)
        except (GateFailure, OSError, KeyError, ValueError) as exc:
            failures.append(f"{' '.join(argv[:2])}: {type(exc).__name__}: {exc}")
    return failures


def output_bytes(cmds, results) -> int:
    """Bytes an op leaves in its out-dirs plus the bytes it prints."""
    total = sum(len(stdout.encode()) for _, stdout in results)
    for _, out_dir, _ in cmds:
        if out_dir is not None:
            total += sum(p.stat().st_size for p in out_dir.rglob("*") if p.is_file())
    return total


def data_sha256(cmds) -> str | None:
    """sha256 over an op's data files (not manifest.json), in a fixed order."""
    digest = hashlib.sha256()
    files = 0
    for index, (_, out_dir, _) in enumerate(cmds):
        if out_dir is None:
            continue
        for path in sorted(p for p in out_dir.rglob("*") if p.is_file()):
            rel = path.relative_to(out_dir).as_posix()
            if rel == "manifest.json":
                continue
            digest.update(f"{index}/{rel}\0".encode())
            digest.update(path.read_bytes())
            files += 1
    return digest.hexdigest() if files else None


def oracle_err_max() -> float:
    """Largest |Fock oracle - Gaussian formula| on the criterion-08 grid."""
    worst = 0.0
    for v in (1.2, 2.0, 3.0):
        out = fock.classical_noise_channel(fock.coherent_density(0.0, 25),
                                           (v - 1.0) * np.eye(2), grid_points=61)
        state = gaussian.GaussianState(1, np.zeros(2), v * np.eye(2))
        for dx in (0.0, 0.5, 1.0):
            oracle = fock.oracle_fidelity(out, dx / 2.0)
            formula = gaussian.coherent_vs_gaussian_fidelity([dx, 0.0], state)
            worst = max(worst, abs(oracle - formula))
    return worst
