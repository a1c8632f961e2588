"""One workload in its own process: warm-up, timed loop, optional traced loop.

Usage: python3 perfbench/child.py WORKLOAD SEED SECONDS TRACE WORK_DIR

Prints one JSON object with the raw samples and counts; ``run.py`` turns
them into metrics. The load is a closed loop with one client: one op at a
time, the next op only after the previous one and its checks are done.
"""

from __future__ import annotations

import ctypes
import gc
import json
import os
import resource
import shutil
import statistics
import sys
import tempfile
import time
from pathlib import Path

import ops
from spans import SpanRecorder

MIN_TIMED_OPS = 11   # so that a percentile with 10 samples beyond it exists
MIN_TRACED_OPS = 3


class Loop:
    """Runs, gates and cleans up ops; accumulates samples and failures."""

    def __init__(self, workload: str, seed: int, work_dir: Path):
        self.workload = workload
        self.seed = seed
        self.work_dir = work_dir
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.output_bytes: list[int] = []

    def op(self, index: int, recorder: SpanRecorder | None = None):
        out = Path(tempfile.mkdtemp(prefix=f"op{index}-", dir=self.work_dir))
        cmds = ops.commands(self.workload, ops.op_seed(self.seed, index), out)
        if recorder is not None:
            recorder.op = index
        elapsed, results = ops.run_op(cmds)
        if recorder is not None:
            recorder.op = None
        failures = ops.check_op(cmds, results)
        self.attempted += 1
        self.failed += bool(failures)
        self.failures += [f"op {index}: {f}" for f in failures]
        self.output_bytes.append(ops.output_bytes(cmds, results))
        sha = ops.data_sha256(cmds) if index == 0 else None
        shutil.rmtree(out)
        gc.collect()
        return elapsed, sha

    def timed(self, seconds: float, min_ops: int, recorder=None) -> list[float]:
        """Ops 1, 2, ... until ``seconds`` have passed and ``min_ops`` ran."""
        samples = []
        deadline = time.perf_counter() + seconds
        while len(samples) < min_ops or time.perf_counter() < deadline:
            elapsed, _ = self.op(len(samples) + 1, recorder)
            samples.append(elapsed)
        return samples


def blas_threads() -> int | None:
    """OpenBLAS thread count of the library numpy loaded, when it is found."""
    import numpy
    libs = Path(numpy.__file__).parent.parent / "numpy.libs"
    for lib in sorted(libs.glob("*openblas*")):
        handle = ctypes.CDLL(str(lib))
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "scipy_openblas_get_num_threads", "openblas_get_num_threads"):
            if hasattr(handle, symbol):
                return int(getattr(handle, symbol)())
    return None


def environment() -> dict:
    import numpy
    import scipy
    return {"python": sys.version.split()[0], "numpy": numpy.__version__,
            "scipy": scipy.__version__, "nproc": os.cpu_count(),
            "blas_threads": blas_threads()}


def layer_stats(recorder: SpanRecorder, traced_ops: list[int]) -> dict:
    """Per span name: median self/total time per op; calls and work of the
    first traced op (these repeat exactly for a fixed seed)."""
    per_op = recorder.summary()
    names = sorted({name for stats in per_op.values() for name in stats})
    zero = {"calls": 0, "total_s": 0.0, "self_s": 0.0, "work": 0}
    out = {}
    for name in names:
        rows = [per_op.get(i, {}).get(name, zero) for i in traced_ops]
        out[name] = {"self_s": statistics.median(r["self_s"] for r in rows),
                     "total_s": statistics.median(r["total_s"] for r in rows),
                     "calls": rows[0]["calls"], "work": rows[0]["work"]}
    return out


def run(workload: str, seed: int, seconds: float, trace: bool, work_dir: Path) -> dict:
    loop = Loop(workload, seed, work_dir)
    _, sha = loop.op(0)  # warm-up; its outputs give the byte-identity digest
    result = {"env": environment(), "first_op_sha256": sha}
    if trace:
        result["samples"] = loop.timed(seconds / 2, MIN_TRACED_OPS)
        recorder = SpanRecorder()
        recorder.install()
        try:
            result["traced_samples"] = loop.timed(seconds / 2, MIN_TRACED_OPS, recorder)
        finally:
            recorder.uninstall()
        traced_ops = list(range(1, len(result["traced_samples"]) + 1))
        result["layers"] = layer_stats(recorder, traced_ops)
        recorder.dump(work_dir.parent / f"spans-{workload}-seed{seed}.jsonl")
    else:
        result["samples"] = loop.timed(seconds, MIN_TIMED_OPS)
    result.update(attempted=loop.attempted, failed=loop.failed,
                  failures=loop.failures,
                  output_bytes=loop.output_bytes,
                  peak_rss_kb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
    return result


def main(argv) -> int:
    workload, seed, seconds, trace, work_dir = argv
    result = run(workload, int(seed), float(seconds), trace == "1", Path(work_dir))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
