"""Output checks run on every op's result, outside the timed region.

References come from ``flowplan.oracle.bfs_distance`` and the structural
validators, never from the planner agreeing with itself.  Every check
raises CheckError on a wrong output; the benchmark counts that op failed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

import flowplan as fp
from flowplan.oracle import bfs_distance

SUM_TOL = 1e-9


class CheckError(Exception):
    """An op returned an output that contradicts its reference."""


@dataclass(frozen=True)
class Reference:
    """What a single-agent op's output must agree with.

    ``distance`` is the number of transitions of a minimum-time path: the
    8-connected BFS distance, or with a pinned start action one first move
    the action's stencil allows plus BFS from there.
    """

    grid: fp.GridMap
    start: tuple[int, int]
    goals: tuple[tuple[int, int], ...]
    pinned: int | None
    horizon: int | None
    distance: int


def _first_moves(grid: fp.GridMap, start, action: int, kappa: float) -> list:
    """Cells a pinned first action can reach: its base stencil's support,
    less cells that are blocked or off the map."""
    mask = fp.default_masks(kappa)[fp.ACTIONS[action]]
    cells = []
    for u, v in zip(*np.nonzero(mask)):
        cell = (start[0] + int(u) - 1, start[1] + int(v) - 1)
        if grid.is_free(cell):
            cells.append(cell)
    return cells


def reference(scenario: fp.Scenario) -> Reference:
    grid, start, goals = scenario.grid, scenario.start_cell, scenario.goal_cells
    pinned = None if scenario.start_action is None else scenario.start_action.index
    if pinned is None:
        distance = bfs_distance(grid, start, goals)
    else:
        after = [
            bfs_distance(grid, cell, goals)
            for cell in _first_moves(grid, start, pinned, scenario.sharpness)
        ]
        after = [d for d in after if d is not None]
        distance = 1 + min(after) if after else None
    if distance is None:
        raise ValueError("benchmark generated an unreachable query")
    return Reference(grid, start, goals, pinned, scenario.horizon, distance)


def _expect(ok: bool, message: str) -> None:
    if not ok:
        raise CheckError(message)


def check_path(path: fp.Path, ref: Reference) -> None:
    try:
        fp.validate_path(path, ref.grid)
    except ValueError as exc:
        raise CheckError(f"invalid path: {exc}") from None
    t0, cell0, action0 = path.steps[0]
    _expect(t0 == 1 and cell0 == ref.start, f"path starts at {cell0}, t={t0}")
    last = path.steps[-1][1]
    _expect(path.reached_goal and last in ref.goals, f"path ends off goal at {last}")
    if ref.pinned is not None:
        _expect(action0 == ref.pinned, f"first action {action0} != pinned {ref.pinned}")
    if ref.horizon is None:
        _expect(
            path.transitions == ref.distance,
            f"{path.transitions} transitions, minimum is {ref.distance}",
        )
    else:
        _expect(
            ref.distance <= path.transitions <= ref.horizon - 1,
            f"{path.transitions} transitions outside [{ref.distance}, "
            f"{ref.horizon - 1}]",
        )


def check_horizon(horizon: int, ref: Reference) -> None:
    want = ref.distance + 1 if ref.horizon is None else ref.horizon
    _expect(horizon == want, f"horizon {horizon}, expected {want}")


def _check_forward_slice(values: np.ndarray, blocked: np.ndarray, t: int) -> None:
    total = float(values.sum())
    _expect(abs(total - 1.0) <= SUM_TOL, f"forward slice {t} sums to {total!r}")
    _expect(not values[blocked].any(), f"forward slice {t} has mass on obstacles")


def check_flows(flows: fp.FlowSet, ref: Reference) -> None:
    check_horizon(flows.horizon, ref)
    _expect(
        len(flows.forward) == flows.horizon - 1,
        f"{len(flows.forward)} forward slices for horizon {flows.horizon}",
    )
    blocked = ref.grid.mask.astype(bool)
    for t, message in enumerate(flows.forward, start=1):
        _check_forward_slice(message.values, blocked, t)
    _check_forward_slice(flows.forward_final, blocked, flows.horizon)


def check_frame(frame: bytes, grid: fp.GridMap) -> None:
    lines = frame.decode("utf-8").split("\n")
    _expect(lines[-1] == "" and len(lines) == grid.rows + 1, "frame row count")
    for i, line in enumerate(lines[:-1]):
        _expect(len(line) == grid.cols, f"frame row {i} has width {len(line)}")
        walls = [ch == "#" for ch in line]
        _expect(walls == list(grid.mask[i] == 1), f"frame row {i} misplaces '#'")


def path_csv(path: fp.Path) -> str:
    """The CLI's ``plan`` output format, written out independently."""
    lines = ["t,row,col,action"]
    for t, (i, j), action in path.steps:
        name = "-" if action is None else fp.ACTIONS[action].name
        lines.append(f"{t},{i},{j},{name}")
    return "\n".join(lines) + "\n"


def check_cli_plan(code: int, stdout: str, api_path: fp.Path, ref: Reference) -> None:
    _expect(code == 0, f"flowplan plan exited {code}")
    check_path(api_path, ref)
    _expect(stdout == path_csv(api_path), "flowplan plan output != API path")


def check_cli_mintime(code: int, stdout: str, ref: Reference) -> None:
    _expect(code == 0, f"flowplan mintime exited {code}")
    _expect(stdout == f"{ref.distance + 1}\n", f"mintime printed {stdout!r}")


def check_episode(result, specs, grid: fp.GridMap) -> None:
    """No co-occupancy, nobody on an obstacle, every agent arrives."""
    _expect(not result.timed_out, f"episode timed out at t={result.t_final}")
    for state in result.states:
        cells = [a.cell for a in state.agents]
        _expect(len(set(cells)) == len(cells), f"co-occupancy at t={state.time}")
        _expect(all(grid.is_free(c) for c in cells), f"agent on obstacle at t={state.time}")
    for spec in specs:
        path = result.paths[spec.agent_id]
        try:
            fp.validate_path(path, grid)
        except ValueError as exc:
            raise CheckError(f"agent {spec.agent_id}: {exc}") from None
        goals = {cell for cell, _ in spec.goals}
        _expect(path.steps[0][1] == spec.start_cell, f"agent {spec.agent_id} start")
        _expect(
            path.reached_goal and path.steps[-1][1] in goals,
            f"agent {spec.agent_id} did not arrive",
        )
