"""cvteleport benchmark: end-to-end and per-layer metrics of the CLI.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload timetrace-ref --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1

Workloads (see BENCHMARK.json for why each was chosen):
  timetrace-ref   one op = ``timetrace`` on the quantum reference config
  validate-full   one op = ``validate --level full``
  analytic-sweep  one op = budget + spectrum + 4 sweeps on both reference configs

Each workload runs in a child process (so peak RSS is the workload's own) as
a closed loop: one client, one op at a time. Every op is gated on correct
output; a failed gate counts in ``failed``. With ``--trace 0`` the last
line of stdout carries the end-to-end metrics listed in BENCHMARK.json;
with ``--trace 1`` it carries the per-layer metrics of a traced run.

Which end-to-end metric a layer should move, and where:
  cli.write_csv, timetrace.*      op_p50_s on timetrace-ref (peak_rss_mb must
                                  not rise); nothing on validate-full
  fock.*                          op_p50_s on validate-full (oracle_err_max
                                  must not rise); nothing elsewhere
  teleporter.*, gaussian.*,       op_p50_s on analytic-sweep; nothing on
  spectral.*, config.*,           timetrace-ref
  cli.make_out_dir/write_manifest
  opa.*                           no end-to-end metric (under 0.1% of any op)
  import cost                     setup_s only
output_mb moves only when an output layout changes.
"""

from __future__ import annotations

import argparse
import json
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
HERE = Path(__file__).resolve().parent
WORKLOADS = ("timetrace-ref", "validate-full", "analytic-sweep")
SETUP_REPEATS = 5  # before and again after the workload, to span the run
CHILD_TIMEOUT_S = 150.0
SETUP_CODE = (
    "import sys, time\n"
    "t = time.perf_counter()\n"
    "sys.path.insert(0, 'src')\n"
    "import cvteleport.cli as cli\n"
    "cli.load_config('configs/reference_quantum.cfg')\n"
    "print(time.perf_counter() - t)\n"
)


def tail(samples: list[float]) -> tuple[float, float, int]:
    """Value at the highest percentile with at least 10 samples beyond it.

    Returns (value, percentile, samples beyond); needs at least 11 samples.
    """
    n = len(samples)
    if n < 11:
        raise ValueError("a tail needs at least 11 samples")
    ordered = sorted(samples)
    return ordered[n - 11], 100.0 * (n - 10) / n, 10


def setup_times(repeats: int = SETUP_REPEATS) -> list[float]:
    """Fresh-interpreter time to import cvteleport.cli and load a config."""
    times = []
    for _ in range(repeats):
        proc = subprocess.run([sys.executable, "-c", SETUP_CODE], cwd=ROOT,
                              capture_output=True, text=True, timeout=60,
                              check=True)
        times.append(float(proc.stdout.split()[-1]))
    return times


def run_child(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    work_root = ROOT / ".perfbench"
    work_root.mkdir(exist_ok=True)
    work_dir = Path(tempfile.mkdtemp(prefix="work-", dir=work_root))
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "child.py"), workload, str(seed),
             str(seconds), "1" if trace else "0", str(work_dir)],
            cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=CHILD_TIMEOUT_S)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} child exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def metric(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


def end_to_end(workload: str, seed: int, seconds: float) -> tuple[dict, dict]:
    """End-to-end metrics of one workload, plus the raw child result."""
    setup = setup_times()
    child = run_child(workload, seed, seconds, trace=False)
    import ops  # the oracle metric runs here, outside the workload's process
    oracle_err = ops.oracle_err_max()
    setup += setup_times()
    samples = child["samples"]
    value, pct, beyond = tail(samples)
    child["tail"] = (pct, beyond)
    child["setup_samples"] = setup
    return {
        "op_p50_s": metric(statistics.median(samples), "s"),
        "op_tail_s": metric(value, "s"),
        "ops_per_s": metric(len(samples) / sum(samples), "op/s"),
        "setup_s": metric(statistics.median(setup), "s"),
        "peak_rss_mb": metric(child["peak_rss_kb"] / 1024.0, "MB"),
        "output_mb": metric(statistics.median(child["output_bytes"]) / 1e6, "MB"),
        "oracle_err_max": metric(oracle_err, "abs"),
    }, child


def per_layer(workload: str, seed: int, seconds: float, names) -> tuple[dict, dict]:
    """Per-layer metrics of a traced run of one workload."""
    child = run_child(workload, seed, seconds, trace=True)
    layers = child["layers"]
    overhead = (statistics.median(child["traced_samples"])
                - statistics.median(child["samples"]))
    out = {"trace.overhead_s": metric(overhead, "s")}
    for name in names:
        if name in out:
            continue
        span, _, kind = name.rpartition(".")
        stats = layers.get(span, {"calls": 0, "self_s": 0.0, "total_s": 0.0,
                                  "work": 0})
        if kind in ("self_s", "total_s"):
            out[name] = metric(stats[kind], "s")
        elif kind == "calls":
            out[name] = metric(stats["calls"], "count")
        else:  # a computed work count: values, bytes, operators
            out[name] = metric(stats["work"], "bytes" if kind == "bytes" else "count")
    return out, child


def report(workload: str, seed: int, metrics: dict, listed: set, child: dict,
           trace: bool) -> None:
    """Human-readable lines; the JSON result line follows them. Metrics not
    listed in BENCHMARK.json are printed but carry no bound."""
    env = child["env"]
    print(f"== {workload}  seed {seed}  closed loop, 1 client, 1 op at a time")
    print(f"env: python {env['python']}, numpy {env['numpy']}, scipy {env['scipy']}, "
          f"nproc {env['nproc']}, blas_threads {env['blas_threads']}")
    n = len(child["samples"])
    if trace:
        n_traced = len(child["traced_samples"])
        op_s = statistics.median(child["traced_samples"])
        print(f"untraced ops {n}, traced ops {n_traced} "
              f"(traced op p50 {op_s:.4f} s); self time share of the traced op:")
        shares = sorted(((s["self_s"], name) for name, s in child["layers"].items()),
                        reverse=True)
        for self_s, name in shares:
            print(f"  {name:38s} {self_s:10.6f} s  {100 * self_s / op_s:5.1f}%")
    else:
        pct, beyond = child["tail"]
        counts = {"op_p50_s": f"n={n} ops", "ops_per_s": f"n={n} ops",
                  "op_tail_s": f"p{pct:.1f}, {beyond} samples beyond, n={n} ops",
                  "setup_s": f"median of n={len(child['setup_samples'])} "
                             "fresh interpreters",
                  "peak_rss_mb": "child process ru_maxrss",
                  "output_mb": f"median over n={len(child['output_bytes'])} ops",
                  "oracle_err_max": "criterion-08 grid, computed once"}
    for name, m in metrics.items():
        note = "" if trace else f"  ({counts[name]})"
        if name not in listed:
            note += "  [printed only, no bound]"
        print(f"{name:38s} {m['value']!r} {m['unit']}{note}")
    failed = child["failed"]
    print(f"error_rate {failed / child['attempted']!r} fraction "
          f"({failed} failed / {child['attempted']} attempted ops)")
    for line in child["failures"][:10]:
        print(f"  FAILED {line}")
    print(f"first-op data sha256: {child['first_op_sha256']}")


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if trace:
        names = [m["name"] for m in spec["per_layer"]]
        metrics, child = per_layer(workload, seed, seconds, names)
    else:
        names = [m["name"] for m in spec["end_to_end"]]
        metrics, child = end_to_end(workload, seed, seconds)
    missing = set(names) - set(metrics)
    if missing:
        raise RuntimeError(f"metrics not computed: {sorted(missing)}")
    report(workload, seed, metrics, set(names), child, trace)
    failed = child["failed"]
    correct = failed == 0 and (trace or metrics["oracle_err_max"]["value"] < 1e-3)
    return {"correct": correct, "attempted": child["attempted"], "failed": failed,
            "metrics": {name: metrics[name] for name in names}}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    needed = [ROOT / "src" / "cvteleport" / "cli.py", ROOT / "BENCHMARK.json",
              ROOT / "configs" / "reference_quantum.cfg",
              ROOT / "configs" / "reference_classical.cfg"]
    absent = [str(p.relative_to(ROOT)) for p in needed if not p.is_file()]
    if absent:
        print(f"perfbench: not a cvteleport checkout, missing {absent}", file=sys.stderr)
        return 2

    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {w: run_workload(w, args.seed, args.seconds, bool(args.trace))
               for w in workloads}
    if len(results) == 1:
        print(json.dumps(results[args.workload]))
    else:
        print(json.dumps({
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{w}.{k}": v for w, r in results.items()
                        for k, v in r["metrics"].items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
