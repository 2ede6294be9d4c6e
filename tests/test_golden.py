"""Discrete planner outputs pinned against a recorded reference.

``tests/data/golden_outputs.json`` holds the committed steps of
``greedy_plan`` and ``sample_path``, ``resolve_horizon`` and the type of
every error, on the bundled scenarios, on 40 seeded random small cases
and for ``simulate`` on ``agents5``.  Only discrete values are stored, not
float bytes, so the guard holds on any BLAS build; a change meant to be
output-preserving (a faster kernel, a cropped stencil pass) must leave
every entry equal.  Regenerate the file from a tree whose outputs are the
intended reference with

    PYTHONPATH=src:tests python tests/test_golden.py --write
"""

from __future__ import annotations

import json
import sys
from dataclasses import replace
from pathlib import Path as FilePath

import numpy as np

from flowplan import (
    GridMap,
    PlanningError,
    Scenario,
    STILL,
    greedy_plan,
    parse_scenario,
    sample_path,
    simulate,
)
from flowplan import scenarios
from flowplan.grid import ACTIONS
from flowplan.planner import POLICIES, resolve_horizon

GOLDEN = FilePath(__file__).parent / "data" / "golden_outputs.json"


def _outcome(call) -> object:
    """The discrete result of ``call()``, or the name of its error type."""
    try:
        out = call()
    except PlanningError as exc:
        return {"error": type(exc).__name__}
    if isinstance(out, int):
        return out
    steps = [[t, cell[0], cell[1], action] for t, cell, action in out.steps]
    return {"steps": steps, "reached_goal": bool(out.reached_goal)}


def _record(out: dict, name: str, scenario: Scenario) -> None:
    out[f"{name}/horizon"] = _outcome(lambda: resolve_horizon(scenario))
    out[f"{name}/greedy"] = _outcome(lambda: greedy_plan(scenario))
    out[f"{name}/sample"] = _outcome(lambda: sample_path(scenario))


def _random_case(rng: np.random.Generator) -> Scenario:
    rows, cols = (int(v) for v in rng.integers(3, 9, size=2))
    mask = (rng.random((rows, cols)) < 0.2).astype(np.uint8)
    free = np.argwhere(mask == 0)
    if len(free) < 2:
        mask[:] = 0
        free = np.argwhere(mask == 0)
    start, *goals = (
        tuple(int(v) for v in free[k])
        for k in rng.choice(len(free), size=int(rng.integers(2, 4)), replace=False)
    )
    pinned = ACTIONS[int(rng.integers(len(ACTIONS)))] if rng.random() < 0.3 else None
    horizon = None if rng.random() < 0.5 else int(rng.integers(2, rows + cols))
    return Scenario(
        GridMap.from_mask(mask),
        start,
        [(g, float(rng.uniform(0.5, 2.0))) for g in goals],
        start_action=pinned,
        horizon=horizon,
        sharpness=float(rng.uniform(0.3, 0.95)),
        stiffness=float(rng.choice([0.0, 0.5, 1.0])),
        seed=int(rng.integers(1000)),
        policy=POLICIES[int(rng.integers(len(POLICIES)))],
        goal_stop=bool(rng.random() < 0.7),
    )


def golden_outputs() -> dict:
    out: dict = {}
    for name in ("empty5", "maze15"):
        base = parse_scenario(scenarios.load(name))
        t_min = resolve_horizon(base)
        for policy in POLICIES:
            for seed in (0, 1):
                for label, horizon in (
                    ("auto", None),
                    ("tmin-2", t_min - 2),
                    ("tmin", t_min),
                    ("tmin+3", t_min + 3),
                ):
                    scenario = replace(
                        base, policy=policy, seed=seed, horizon=horizon
                    )
                    _record(out, f"{name}/{policy}/{seed}/{label}", scenario)
        _record(out, f"{name}/still-start", replace(base, start_action=STILL))
    rng = np.random.default_rng(20261018)
    for k in range(40):
        _record(out, f"random/{k}", _random_case(rng))
    world = parse_scenario(scenarios.load("agents5"))
    for schedule in ("fixed", "random"):
        for seed in (0, 1):
            result = simulate(world.agents, world.grid, world.t_max, schedule, seed)
            paths = {
                str(aid): _outcome(lambda p=path: p)
                for aid, path in sorted(result.paths.items())
            }
            out[f"agents5/{schedule}/{seed}"] = {
                "timed_out": bool(result.timed_out),
                "paths": paths,
            }
    return out


def test_discrete_outputs_match_the_recorded_reference():
    expected = json.loads(GOLDEN.read_text("utf-8"))
    actual = json.loads(json.dumps(golden_outputs()))
    assert actual.keys() == expected.keys()
    differ = [key for key in expected if actual[key] != expected[key]]
    assert not differ, f"{len(differ)} of {len(expected)} outputs differ: {differ[:10]}"


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: python tests/test_golden.py --write")
    GOLDEN.parent.mkdir(exist_ok=True)
    entries = sorted(golden_outputs().items())
    lines = (f"{json.dumps(key)}: {json.dumps(value)}" for key, value in entries)
    GOLDEN.write_text("{\n" + ",\n".join(lines) + "\n}\n", "utf-8")
