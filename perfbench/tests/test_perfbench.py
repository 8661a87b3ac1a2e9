"""Tests of the benchmark's own logic: inputs, digest gate, span accounting.

Run from the repository root: python3 -m pytest perfbench/tests
"""

import json
from pathlib import Path

import pytest

import probe
import run
import tracing
import worker
import workloads
from polyprime import grid, verify

ROOT = Path(__file__).resolve().parents[2]


@pytest.fixture(scope="module")
def reference():
    return workloads.load_reference()


def input_digest(workload, seed, reference):
    return workloads.digest(workloads.make_inputs(workload, seed, reference).describe())


@pytest.mark.parametrize("workload", ["verify", "orders"])
def test_seed_fixes_the_inputs(workload, reference):
    first = workloads.make_inputs(workload, 7, reference)
    again = workloads.make_inputs(workload, 7, reference)
    assert [p.cells_sorted for p in first.shapes] == [p.cells_sorted for p in again.shapes]
    assert input_digest(workload, 7, reference) == input_digest(workload, 7, reference)
    assert input_digest(workload, 7, reference) != input_digest(workload, 8, reference)


def test_input_set_sizes(reference):
    shapes = workloads.make_inputs("verify", 1, reference).shapes
    assert sum(1 for p in shapes if not grid.is_simple(p)) == workloads.NON_SIMPLE_OCTOMINOES
    assert sorted(len(p) for p in shapes if grid.is_simple(p)) == sorted(
        n for n in workloads.VERIFY_SIZES for _ in range(workloads.VERIFY_PICKS))
    orders = workloads.make_inputs("orders", 1, reference).shapes
    assert sorted(len(p) for p in orders) == sorted(
        n for n in workloads.ORDERS_SIZES for _ in range(workloads.ORDERS_PICKS))


def test_paired_pick_takes_one_of_each_evenly_spaced_pair():
    import random

    pool = [{"n": 3, "cost": c, "cells": [[c, 0]]} for c in range(12)]
    for seed in range(5):
        picked = workloads.paired_pick(pool, (3,), 3, random.Random(seed))
        assert [cells[0][0] in pair for cells, pair in zip(picked, ((0, 1), (5, 6), (10, 11)))] == [True] * 3
    picks = {tuple(c[0][0] for c in workloads.paired_pick(pool, (3,), 3, random.Random(s)))
             for s in range(20)}
    assert len(picks) > 1


def test_perturbed_output_fails_the_digest_gate(reference):
    poly = next(p for p in grid.enumerate_polyominoes(8) if not grid.is_simple(p))
    inputs = workloads.Inputs("verify", [poly])
    output = workloads.report_output(
        verify.verify_polyomino(poly, verify.VerifyConfig(search_quadratic=True)))
    res = workloads.PassResult()
    key = workloads.cells_key(poly.cells_sorted)
    res.outputs[key] = workloads.digest(output)
    assert workloads.check_outputs(inputs, [res], reference) == []

    output["gap_witness"] = output["gap_witness"].replace("-", "+", 1)
    res.outputs[key] = workloads.digest(output)
    assert len(workloads.check_outputs(inputs, [res], reference)) == 1
    del res.outputs[key]
    assert len(workloads.check_outputs(inputs, [res], reference)) == 1


def test_self_time_on_a_hand_built_span_tree():
    ticks = iter([0.0, 1.0, 2.0, 4.0, 5.0, 8.0, 10.0, 11.0, 12.0])
    tracer = tracing.Tracer(clock=lambda: next(ticks))
    tracer.enter("root")          # 0
    tracer.enter("a")             # 1
    tracer.enter("leaf")          # 2
    tracer.exit()                 # 4: leaf lasts 2
    tracer.exit()                 # 5: a lasts 4, self 2
    tracer.enter("leaf")          # 8
    tracer.exit()                 # 10: leaf lasts 2
    tracer.exit()                 # 11: root lasts 11, self 11 - 4 - 2 = 5
    tracer.enter("other")         # 12, left open
    assert tracer.spans["root"] == [1, 11.0, 5.0]
    assert tracer.spans["a"] == [1, 4.0, 2.0]
    assert tracer.spans["leaf"] == [2, 4.0, 4.0]
    assert tracer.top_level_s == 11.0


def test_tracing_leaves_outputs_unchanged_and_uninstalls():
    original = verify.sweep
    plain = workloads.digest(verify.sweep_to_json(verify.sweep(4), with_timings=False))
    tracer = tracing.Tracer()
    inst = tracing.install(tracer)
    try:
        traced = workloads.digest(verify.sweep_to_json(verify.sweep(4), with_timings=False))
    finally:
        tracing.uninstall(inst)
    assert traced == plain
    assert verify.sweep is original
    layers = tracing.layer_metrics(tracer, inst.kernel_wrapped)
    assert layers["verify.verify_polyomino.calls"] == 1 + 2 + 6 + 19
    assert layers["algebra.toric_ideal_elimination.calls"] == 28
    assert 0 <= layers["verify.sweep.self_s"] <= layers["verify.sweep.s"]


def test_a_replacement_that_fails_is_not_undone():
    inst = tracing.Installation()
    with pytest.raises(TypeError):
        inst.set(int, "bit_length", lambda self: 0)
    tracing.uninstall(inst)
    assert (5).bit_length() == 3


def test_pool_workers_send_their_spans_back():
    tracer = tracing.Tracer()
    inst = tracing.install(tracer)
    try:
        summary = verify.sweep(3, verify.VerifyConfig(workers=2))
    finally:
        tracing.uninstall(inst)
    for report in summary.reports:
        tracer.merge(report.layer_trace)
    layers = tracing.layer_metrics(tracer, inst.kernel_wrapped)
    assert layers["verify.verify_polyomino.calls"] == 1 + 2 + 6
    assert layers["kernel.compare.calls"] > 0
    if inst.kernel_wrapped:
        assert layers["kernel.basis.append.calls"] > 0


def test_probe_scale_turns_probe_times_into_reference_seconds():
    ref = probe.REF_S
    assert probe.scale([ref, ref, 5 * ref]) == pytest.approx(1.0)
    assert probe.scale([2 * ref, ref, 2 * ref]) == pytest.approx(0.5)
    assert probe.probe() > 0


def test_sweep_pass_probes_every_shape_in_the_pool_workers():
    original = verify.verify_polyomino
    res = workloads.run_pass(workloads.Inputs("sweep_pool", [], n_max=3, workers=2))
    assert verify.verify_polyomino is original
    assert len(res.probes_s) == len(res.latencies_s) == 1 + 2 + 6
    assert all(t > 0 for t in res.probes_s)
    assert res.probe_wall_s == pytest.approx(sum(res.probes_s) / 2)
    assert res.wall_s == pytest.approx(res.elapsed_s - res.probe_wall_s)
    assert res.local_probe_s == 0.0


def test_item_loops_probe_before_each_item():
    poly = next(p for p in grid.enumerate_polyominoes(8) if not grid.is_simple(p))
    res = workloads.run_pass(workloads.Inputs("verify", [poly, poly]))
    assert len(res.probes_s) == len(res.latencies_s) == 2
    assert res.local_probe_s == pytest.approx(sum(res.probes_s))
    assert res.wall_s == pytest.approx(res.elapsed_s - res.local_probe_s)


def test_summary_scales_each_pass_by_its_own_probes():
    inputs = workloads.Inputs("verify", [])
    slow, fast = workloads.PassResult(), workloads.PassResult()
    slow.items = fast.items = 2
    slow.wall_s, slow.cpu_s, slow.latencies_s = 4.0, 3.0, [1.0, 3.0]
    slow.probes_s = [2 * probe.REF_S] * 3
    fast.wall_s, fast.cpu_s, fast.latencies_s = 2.0, 1.5, [0.5, 1.5]
    fast.probes_s = [probe.REF_S] * 3
    summary = worker.summarize([slow, fast], inputs)
    assert summary["wall_s"] == pytest.approx(2.0)
    assert summary["cpu_s"] == pytest.approx(1.5)
    assert summary["items_per_s"] == pytest.approx(1.0)
    assert summary["latency_samples"] == 4
    assert summary["host_scale"] == pytest.approx(0.75)


def test_benchmark_json_lists_the_reported_metrics():
    with open(ROOT / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(tracing.PER_LAYER)
