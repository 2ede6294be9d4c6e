"""Tests of the benchmark itself: python -m pytest perfbench -q"""

from __future__ import annotations

import json
from dataclasses import replace
from itertools import islice
from pathlib import Path

import numpy as np
import pytest

import flowplan as fp

import check
import run
import spans
import workloads

HERE = Path(__file__).resolve().parent

#: ops drawn per workload; enough to cover each size cycle once
_DRAWS = {"open100": 3, "batch": 8, "corridor": 6, "crowd": 12}


@pytest.mark.parametrize("name", workloads.NAMES)
def test_generators_are_deterministic_per_seed(name, tmp_path):
    def inputs(seed):
        ops = workloads.make(name, seed, str(tmp_path))
        return [op.inputs for op in islice(ops, _DRAWS[name])]

    first = inputs(7)
    assert first == inputs(7)
    assert first != inputs(8)


@pytest.mark.parametrize("name", workloads.NAMES)
def test_generated_ops_pass_their_checks(name, tmp_path):
    for op in islice(workloads.make(name, 3, str(tmp_path)), 3):
        op.check(op.run())


def _small_case():
    mask = np.zeros((5, 6), dtype=np.uint8)
    mask[1:4, 3] = 1
    grid = fp.GridMap.from_mask(mask)
    scenario = fp.Scenario(grid, (2, 0), [(2, 5)])
    return scenario, check.reference(scenario), fp.greedy_plan(scenario)


def _renumbered(cells_actions, reached=True):
    steps = tuple((t, c, a) for t, (c, a) in enumerate(cells_actions, start=1))
    return fp.Path(steps, reached)


def test_checker_accepts_the_planner_path():
    _, ref, path = _small_case()
    check.check_path(path, ref)


def test_checker_rejects_a_skipped_cell():
    _, ref, path = _small_case()
    kept = [(c, a) for _, c, a in path.steps]
    del kept[2]
    with pytest.raises(check.CheckError, match="non-adjacent"):
        check.check_path(_renumbered(kept), ref)


def test_checker_rejects_a_wrong_length():
    _, ref, path = _small_case()
    steps = [(c, a) for _, c, a in path.steps]
    steps.insert(1, (steps[1][0], 0))  # wait one slice on the second cell
    with pytest.raises(check.CheckError, match="transitions"):
        check.check_path(_renumbered(steps), ref)


def test_checker_rejects_a_cell_on_an_obstacle():
    scenario, ref, path = _small_case()
    steps = [(c, a) for _, c, a in path.steps]
    steps[2] = ((2, 3), steps[2][1])
    assert scenario.grid.mask[2, 3] == 1
    with pytest.raises(check.CheckError, match="obstacle"):
        check.check_path(_renumbered(steps), ref)


def test_checker_rejects_flow_mass_on_an_obstacle():
    scenario, ref, _ = _small_case()
    flows = fp.scenario_flows(scenario)
    check.check_flows(flows, ref)
    moved = flows.forward[2].values.copy()
    moved[1, 3, 0] += 0.25  # an obstacle cell; total mass stays 1
    moved /= moved.sum()
    bad = list(flows.forward)
    bad[2] = fp.MessageTensor(moved, "forward")
    with pytest.raises(check.CheckError, match="obstacles"):
        check.check_flows(replace(flows, forward=tuple(bad)), ref)


def test_checker_rejects_cli_output_that_differs_from_the_api_path():
    _, ref, path = _small_case()
    csv = check.path_csv(path)
    check.check_cli_plan(0, csv, path, ref)
    with pytest.raises(check.CheckError):
        check.check_cli_plan(0, csv.replace(",right", ",left", 1), path, ref)


def _tree(*rows):
    return [spans.Span(name, parent, lo, hi) for name, parent, lo, hi in rows]


def test_self_times_on_a_hand_built_tree():
    tree = _tree(
        (spans.ROOT, -1, 0, 100),
        ("a", 0, 10, 40),
        ("b", 1, 20, 30),
        ("c", 0, 50, 90),
        (spans.ROOT, -1, 200, 260),
        ("d", 4, 210, 240),
        ("e", 4, 230, 250),  # overlaps d: the union covers 210-250
    )
    assert spans.self_times(tree) == [30, 20, 10, 40, 20, 30, 20]


def test_coverage_is_layer_self_time_over_op_time():
    tree = _tree(
        (spans.ROOT, -1, 0, 100),
        ("grid.build_kernel", 0, 10, 40),
        ("engine.min_time", 0, 50, 90),
    )
    metrics = spans.layer_metrics(tree)
    assert metrics["trace.coverage"] == pytest.approx(0.7)
    assert metrics["grid.build_kernel.self_ms"] == pytest.approx(30e-6)
    assert metrics["engine.min_time.calls"] == 1.0


def test_recorder_nests_spans_and_restores_the_package():
    scenario, _, _ = _small_case()
    original = fp.grid.build_kernel
    recorder = spans.Recorder()
    recorder.install()
    try:
        with recorder.root("greedy"):
            fp.greedy_plan(scenario)
    finally:
        recorder.uninstall()
    assert fp.grid.build_kernel is original
    assert fp.planner.build_kernel is original
    names = [s.name for s in recorder.spans]
    assert names[0] == spans.ROOT
    build = names.index("grid.build_kernel")
    setup = recorder.spans[build].parent
    assert recorder.spans[setup].name == "planner.build_setup"
    assert recorder.spans[recorder.spans[setup].parent].name == "planner.greedy_plan"
    assert "engine.forward_step" in names and "engine.min_time" in names


def test_tail_is_the_highest_percentile_with_ten_samples_beyond():
    value, percentile, beyond = run.tail([float(v) for v in range(200)])
    assert (value, percentile, beyond) == (179.0, 90.0, 20)
    value, percentile, beyond = run.tail([float(v) for v in range(1000)])
    assert (value, percentile, beyond) == (989.0, 99.0, 10)
    value, percentile, _ = run.tail([3.0, 1.0, 2.0])
    assert (value, percentile) == (2.0, 50.0)


def test_benchmark_json_matches_the_metric_tables():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    # corridor is run by hand only: its long-horizon ops fail today
    benchmarked = [w["name"] for w in spec["workloads"]]
    assert benchmarked == [n for n in workloads.NAMES if n != "corridor"]
    for key, table in (("end_to_end", run.END_TO_END), ("per_layer", run.PER_LAYER)):
        declared = {m["name"]: (m["unit"], m["better"]) for m in spec[key]}
        assert declared == table
