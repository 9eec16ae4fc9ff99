"""Self-tests of the benchmark at tiny sizes.

Run from the repository root: python3 -m pytest perfbench -q
"""
import dataclasses
import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402

run.require_source()

import tracer  # noqa: E402
import workloads  # noqa: E402

BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def _tiny(workload, traced):
    return run.measure(workload, 0, 0, traced, sizes=workloads.TINY,
                       probes=1)[0]


def test_benchmark_json_lists_the_emitted_metrics():
    assert {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]} \
        == run.E2E_UNITS
    assert {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]} \
        == run.LAYER_UNITS
    assert [w["name"] for w in BENCHMARK["workloads"]] \
        == list(workloads.NAMES)


@pytest.mark.parametrize("workload", workloads.NAMES)
@pytest.mark.parametrize("traced", [False, True])
def test_every_metric_is_emitted_with_its_unit(workload, traced):
    result = _tiny(workload, traced)["result"]
    units = run.LAYER_UNITS if traced else run.E2E_UNITS
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    assert {k: m["unit"] for k, m in result["metrics"].items()} == units
    for m in result["metrics"].values():
        assert isinstance(m["value"], (int, float))
        assert math.isfinite(m["value"])
    if not traced:
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_inputs_are_a_function_of_the_seed():
    for name in workloads.NAMES:
        a = workloads.build(name, 3, workloads.TINY)
        b = workloads.build(name, 3, workloads.TINY)
        assert repr(a.ops) == repr(b.ops)
    a = workloads.build("bound_queries", 3, workloads.TINY)
    b = workloads.build("bound_queries", 4, workloads.TINY)
    assert repr(a.ops) != repr(b.ops)


def _pass(name):
    inputs = workloads.build(name, 0, workloads.TINY)
    outputs = run.run_pass(workloads, inputs).outputs
    return inputs, outputs, workloads.reference_entries(inputs, outputs)


def test_one_ulp_change_in_a_simulated_output_fails():
    inputs, outputs, ref = _pass("sim_narrow")
    lowers = workloads.sim_lower_bounds(inputs)
    assert workloads.check(inputs, outputs, ref, lowers).failed == 0
    res = outputs[3]
    outputs[3] = dataclasses.replace(
        res, avg_state_cost=math.nextafter(res.avg_state_cost, math.inf))
    assert workloads.check(inputs, outputs, ref, lowers).failed == 1


def test_bound_changes_against_the_reference():
    inputs, outputs, ref = _pass("bound_queries")
    assert workloads.check(inputs, outputs, ref).failed == 0
    lower, upper = outputs[0]

    def verdict(lo, up):
        return workloads.check(inputs, [(lo, up)] + outputs[1:], ref)

    assert verdict(lower, math.nextafter(upper, 0)).failed == 1
    assert verdict(math.nextafter(lower, math.inf), upper).failed == 1
    down = verdict(math.nextafter(lower, 0), upper)
    assert down.failed == 0 and down.changed_vs_reference == 1
    assert verdict(upper * 2, upper).failed == 1


def test_failed_certification_counts_per_point():
    inputs, outputs, ref = _pass("bounds_grid")
    assert workloads.check(inputs, outputs, ref).failed == 0
    outputs[0] = [dataclasses.replace(outputs[0][0], passed=False)] \
        + outputs[0][1:]
    assert workloads.check(inputs, outputs, ref).failed == 1
    outputs[1] = None
    assert workloads.check(inputs, outputs, ref).failed == 1 + 27


def test_child_spans_fit_inside_their_parent():
    rec = tracer.Recorder()
    rec.install()
    try:
        for name in workloads.NAMES:
            run.run_pass(workloads, workloads.build(name, 0, workloads.TINY))
    finally:
        rec.restore()
    sp = rec.spans()
    dur = sp["end"] - sp["start"]
    child = {}
    for i, parent in enumerate(sp["parent"]):
        if parent >= 0:
            child[parent] = child.get(parent, 0) + dur[i]
            assert sp["start"][parent] <= sp["start"][i]
            assert sp["end"][i] <= sp["end"][parent]
    assert child and all(total <= dur[p] for p, total in child.items())
    assert rec.nesting_ok()
    tab = rec.table()
    assert tab["bounds_upper.du1"]["raised"] > 0
    assert tab["simulator.counter_normals"]["work"] > 0


def test_restore_puts_the_originals_back():
    from lqgduet import bounds_upper, certifier, lattice, strategies
    before = (bounds_upper.optimize_upper, certifier.optimize_upper,
              lattice.quantize, strategies.quantize, strategies.Sig.step)
    rec = tracer.Recorder()
    rec.install()
    assert certifier.optimize_upper is bounds_upper.optimize_upper \
        is not before[0]
    assert strategies.quantize is lattice.quantize is not before[2]
    rec.restore()
    assert (bounds_upper.optimize_upper, certifier.optimize_upper,
            lattice.quantize, strategies.quantize,
            strategies.Sig.step) == before


def test_refuses_to_run_without_the_source(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(BENCHMARK["command"] + [
        "--workload", "sim_narrow", "--seed", "0", "--seconds", "1",
        "--trace", "0"], cwd=tmp_path, capture_output=True, text=True,
        timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
