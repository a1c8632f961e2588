"""Outside-in span recorder for the traced benchmark run.

The recorder wraps cvteleport's public functions from outside the package:
each wrapper is installed wherever a caller looks the function up, i.e. in
every ``cvteleport.*`` module namespace that binds the original object
(``cli`` binds ``extract_modes`` by name, ``timetrace`` calls its own
``window_tiling``, ``validate`` goes through ``fock.<name>``). Spans stay in
memory; :meth:`SpanRecorder.summary` turns them into per-op layer metrics.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import sys
import time
from dataclasses import dataclass

import numpy as np


def _csv_values(path, header, columns):
    return len(columns) * min((len(c) for c in columns), default=0)


def _file_bytes(path):
    return os.path.getsize(path)


def _operators(betas, dim):
    return int(np.size(betas))


# (module, function, work unit, work counter). A work counter is computed
# from the call's arguments, so it repeats exactly for the same inputs.
TARGETS = [
    ("cli", "main", None, None),
    ("cli", "write_csv", "values", _csv_values),
    ("cli", "write_json", None, None),
    ("cli", "sha256_file", "bytes", _file_bytes),
    ("cli", "write_manifest", None, None),
    ("cli", "make_out_dir", None, None),
    ("config", "load_config", None, None),
    ("timetrace", "synth_random_coherent", None, None),
    ("timetrace", "simulate_traces", None, None),
    ("timetrace", "window_tiling", None, None),
    ("timetrace", "extract_modes", None, None),
    ("timetrace", "concatenate_modes", None, None),
    ("timetrace", "estimate_report", None, None),
    ("fock", "classical_noise_channel", None, None),
    ("fock", "displacement_matrices", "operators", _operators),
    ("fock", "coherent_density", None, None),
    ("fock", "oracle_fidelity", None, None),
    ("teleporter", "run_teleport", None, None),
    ("teleporter", "analytic_noise_budget", None, None),
    ("gaussian", "apply_symplectic", None, None),
    ("gaussian", "apply_loss", None, None),
    ("spectral", "synthesize_spectrum", None, None),
    ("spectral", "apply_measurement_jitter", None, None),
    ("spectral", "spectrum_report", None, None),
    ("opa", "distributed_psa_equivalent", None, None),
    ("validate", "run_validation", None, None),
]


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None  # index of the enclosing span, None at the top
    op: int             # index of the benchmark op that caused it
    work: int | None    # computed work count, for spans that carry one


class SpanRecorder:
    """Records a span per wrapped call while ``op`` is set; inert otherwise."""

    def __init__(self):
        self.spans: list[Span] = []
        self.op: int | None = None
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def wrap(self, name, fn, work=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self.op is None:
                return fn(*args, **kwargs)
            index = len(self.spans)
            parent = self._stack[-1] if self._stack else None
            count = work(*args, **kwargs) if work is not None else None
            span = Span(name, time.perf_counter(), 0.0, parent, self.op, count)
            self.spans.append(span)
            self._stack.append(index)
            try:
                return fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                self._stack.pop()
        return wrapper

    def install(self, targets=TARGETS):
        """Replace every binding of each target in the loaded cvteleport modules."""
        for module, func, _, work in targets:
            original = getattr(importlib.import_module(f"cvteleport.{module}"), func)
            wrapper = self.wrap(f"{module}.{func}", original, work)
            for mod_name, mod in list(sys.modules.items()):
                if mod_name != "cvteleport" and not mod_name.startswith("cvteleport."):
                    continue
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, wrapper)
                        self._patches.append((mod, attr, original))

    def uninstall(self):
        for mod, attr, original in reversed(self._patches):
            setattr(mod, attr, original)
        self._patches.clear()

    def summary(self) -> dict[int, dict[str, dict[str, float]]]:
        """Per op, per span name: calls, total_s, self_s and summed work.

        Self time is a span's duration minus the durations of its direct
        child spans.
        """
        child_s = [0.0] * len(self.spans)
        for span in self.spans:
            if span.parent is not None:
                child_s[span.parent] += span.end - span.start
        out: dict[int, dict[str, dict[str, float]]] = {}
        for span, inner in zip(self.spans, child_s):
            entry = out.setdefault(span.op, {}).setdefault(
                span.name, {"calls": 0, "total_s": 0.0, "self_s": 0.0, "work": 0})
            duration = span.end - span.start
            entry["calls"] += 1
            entry["total_s"] += duration
            entry["self_s"] += duration - inner
            if span.work is not None:
                entry["work"] += span.work
        return out

    def dump(self, path):
        """Write the recorded spans as one JSON object per line."""
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span.__dict__) + "\n")
