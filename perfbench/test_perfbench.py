"""Tests of the benchmark itself: run with ``python3 -m pytest -q perfbench``."""

from __future__ import annotations

import json

import pytest

import child
import ops
import run
import spans
from cvteleport import cli, timetrace


def test_tail_is_highest_percentile_with_ten_samples_beyond():
    samples = [float(i) for i in range(100)]
    assert run.tail(samples) == (89.0, 90.0, 10)
    assert run.tail(samples[:11]) == (0.0, 100.0 / 11, 10)
    with pytest.raises(ValueError):
        run.tail(samples[:10])


def test_self_time_subtracts_direct_children():
    rec = spans.SpanRecorder()
    inner = rec.wrap("m.inner", lambda: sum(range(20000)))
    outer = rec.wrap("m.outer", lambda: inner() + inner())
    outer()  # not inside an op: records nothing
    assert rec.spans == []
    rec.op = 0
    outer()
    rec.op = None
    stats = rec.summary()[0]
    assert stats["m.inner"]["calls"] == 2 and stats["m.outer"]["calls"] == 1
    assert stats["m.outer"]["self_s"] == pytest.approx(
        stats["m.outer"]["total_s"] - stats["m.inner"]["total_s"], abs=1e-12)
    assert stats["m.inner"]["self_s"] == stats["m.inner"]["total_s"]


def test_install_wraps_every_binding_and_uninstall_restores():
    original = timetrace.extract_modes
    rec = spans.SpanRecorder()
    rec.install()
    try:
        assert cli.extract_modes is timetrace.extract_modes
        assert cli.extract_modes is not original
        assert timetrace.window_tiling.__wrapped__.__module__ == "cvteleport.timetrace"
    finally:
        rec.uninstall()
    assert cli.extract_modes is original and timetrace.extract_modes is original


def _traced_counts(workload, seed, work_dir):
    loop = child.Loop(workload, seed, work_dir)
    rec = spans.SpanRecorder()
    rec.install()
    try:
        loop.op(1, rec)
    finally:
        rec.uninstall()
    assert loop.failed == 0, loop.failures
    stats = child.layer_stats(rec, [1])
    return {name: (s["calls"], s["work"]) for name, s in stats.items()}


@pytest.mark.parametrize("workload", ops.WORKLOADS)
def test_computed_counts_repeat_exactly_for_a_fixed_seed(workload, tmp_path):
    first = _traced_counts(workload, 7, tmp_path)
    assert first == _traced_counts(workload, 7, tmp_path)
    if workload == "timetrace-ref":
        assert first["timetrace.window_tiling"] == (130, 0)
        assert first["cli.write_csv"] == (129, 128 * 2048 * 5 + ops.N_MODES_REF * 5)
    if workload == "validate-full":
        assert first["fock.classical_noise_channel"][0] > 0
        assert first["fock.displacement_matrices"][1] > 0
        assert "cli.write_csv" not in first and "timetrace.window_tiling" not in first


def test_gate_rejects_tampered_and_wrong_outputs(tmp_path):
    cmds = ops.commands("analytic-sweep", 5, tmp_path)[:2]  # budget, spectrum
    _, results = ops.run_op(cmds)
    assert ops.check_op(cmds, results) == []
    digest = ops.data_sha256(cmds)
    again = ops.commands("analytic-sweep", 5, tmp_path / "again")[:2]
    ops.run_op(again)
    assert ops.data_sha256(again) == digest

    budget = cmds[0][1] / "budget.json"
    payload = json.loads(budget.read_text())
    payload["quantum"]["n_out"] = 1.6
    budget.write_text(json.dumps(payload))
    failures = ops.check_op(cmds, results)
    assert len(failures) == 1 and "manifest" in failures[0]
    with pytest.raises(ops.GateFailure, match="quantum N_out"):
        ops.check_budget(cmds[0][1], "")
    with pytest.raises(ops.GateFailure):
        ops.check_validate(None, "13/14 checks passed (level=full)\n")
    assert ops.check_op([(["budget"], None, ops.check_budget)], [(2, "")])


def test_benchmark_json_names_only_recorded_layers():
    spec = json.loads((ops.ROOT / "BENCHMARK.json").read_text())
    assert set(spec) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    assert [w["name"] for w in spec["workloads"]] == list(ops.WORKLOADS) == list(run.WORKLOADS)
    assert any(m["name"] == "setup_s" for m in spec["end_to_end"])
    units = {f"{m}.{f}": unit for m, f, unit, _ in spans.TARGETS}
    for m in spec["per_layer"]:
        span, _, kind = m["name"].rpartition(".")
        if m["name"] == "trace.overhead_s":
            continue
        assert span in units, m["name"]
        assert kind in ("calls", "self_s", "total_s") or kind == units[span], m["name"]
