"""The four benchmark workloads, each an endless op stream made from a seed.

Every op carries ``inputs``: the text the program under test receives
(a scenario file, or for ``crowd`` a grid plus agent list, since the file
format only has digits for nine agents).  The generator builds each op's
call and the oracle reference its check needs before yielding it, outside
the timed region.  Op sizes follow a fixed cycle per workload and the seed
varies everything else, so runs with different seeds measure the same mix
of work on different inputs.  README.md records why each workload exists
and which layers it does and does not stress.
"""

from __future__ import annotations

import io
import os
from collections import deque
from contextlib import redirect_stdout
from dataclasses import dataclass, replace
from typing import Any, Callable, Iterator

import numpy as np

import flowplan as fp
from flowplan import cli, scenarios
from flowplan.oracle import bfs_distance

import check

NAMES = ("open100", "batch", "corridor", "crowd")


@dataclass
class Op:
    """One benchmark operation; ``run`` is timed, ``check`` is not."""

    kind: str
    inputs: str
    run: Callable[[], Any]
    check: Callable[[Any], None]
    slices: Callable[[Any], int]


def make(name: str, seed: int, scratch_dir: str) -> Iterator[Op]:
    """The op stream of one workload; ``scratch_dir`` holds CLI input files."""
    rng = np.random.default_rng([seed, NAMES.index(name)])
    if name == "open100":
        return _open100(rng)
    if name == "batch":
        return _batch(rng, scratch_dir)
    if name == "corridor":
        return _corridor(rng)
    if name == "crowd":
        return _crowd(rng)
    raise ValueError(f"unknown workload {name!r}")


# -- scenario text ----------------------------------------------------------


def scenario_text(mask: np.ndarray, marks: dict, header: dict) -> str:
    """A scenario file: ``key = value`` header, ``---``, then the grid."""
    rows = [["#" if v else "." for v in row] for row in mask]
    for (i, j), ch in marks.items():
        rows[i][j] = ch
    head = "".join(f"{k} = {v}\n" for k, v in header.items())
    return head + "---\n" + "\n".join("".join(r) for r in rows) + "\n"


def _free_cells(mask: np.ndarray) -> list[tuple[int, int]]:
    return [(int(i), int(j)) for i, j in np.argwhere(mask == 0)]


def _pick(rng: np.random.Generator, cells: list) -> tuple[int, int]:
    return cells[int(rng.integers(len(cells)))]


def _goal_text(mask, start, goals, weights, header) -> str:
    marks = {start: "S", **{g: "G" for g in goals}}
    if len(goals) > 1:
        # goal_weights are matched to G cells in row-major order
        ordered = sorted(zip(goals, weights))
        header = {**header, "goal_weights": ",".join(str(w) for _, w in ordered)}
    return scenario_text(mask, marks, header)


def _single_op(kind: str, text: str, scenario: fp.Scenario, pinned=None) -> Op:
    """greedy_plan, sample_path, resolve_horizon or scenario_flows on a
    parsed scenario, checked against BFS from the oracle."""
    if pinned is not None:
        scenario = replace(scenario, start_action=fp.ACTIONS[pinned])
    ref = check.reference(scenario)

    def run():
        return _call(kind, scenario)

    if kind == "horizon":
        return Op(kind, text, run, lambda h: check.check_horizon(h, ref), int)
    if kind == "flows":
        return Op(kind, text, run, lambda fl: check.check_flows(fl, ref),
                  lambda fl: fl.horizon)
    return Op(kind, text, run, lambda p: check.check_path(p, ref),
              lambda p: p.t_used)


_CALLS = {
    "greedy": "greedy_plan",
    "sample": "sample_path",
    "horizon": "resolve_horizon",
    "flows": "scenario_flows",
}


def _call(kind: str, scenario: fp.Scenario):
    # looked up on each call, so the traced run sees its wrappers
    return getattr(fp.planner, _CALLS[kind])(scenario)


# -- open100 ----------------------------------------------------------------

_OPEN_KINDS = ("greedy", "sample", "flows")


def _open100(rng) -> Iterator[Op]:
    k = 0
    while True:
        while True:
            mask = (rng.random((100, 100)) < 0.10).astype(np.uint8)
            start = (int(rng.integers(0, 5)), int(rng.integers(0, 5)))
            goal = (int(rng.integers(95, 100)), int(rng.integers(95, 100)))
            mask[start] = mask[goal] = 0
            d = bfs_distance(fp.GridMap.from_mask(mask), start, [goal])
            if d is not None and d >= 90:
                break
        text = _goal_text(mask, start, [goal], [1.0], {"horizon": "auto"})
        scenario = fp.parse_scenario(text)
        yield _single_op(_OPEN_KINDS[k % 3], text, scenario)
        k += 1


# -- batch ------------------------------------------------------------------

_BATCH_KINDS = (
    "greedy", "sample", "horizon", "flows", "greedy", "sample", "cli_plan",
    "cli_mintime",
)


# (rows, cols, obstacle density) of the random maps; fixed, so that only
# the obstacle layout and the queries change with the seed
_BATCH_MAPS = (
    (12, 12, 0.0), (14, 22, 0.05), (18, 18, 0.1), (20, 24, 0.15),
    (24, 16, 0.2), (24, 24, 0.25),
)


def _batch_maps(rng) -> list[np.ndarray]:
    maps = []
    for rows, cols, density in _BATCH_MAPS:
        maps.append((rng.random((rows, cols)) < density).astype(np.uint8))
    for name in ("maze15", "empty5"):
        maps.append(fp.parse_scenario(scenarios.load(name)).grid.mask.copy())
    return maps


#: batch queries start at most this many steps from their goal set, so the
#: slowest queries of every seed are alike
_BATCH_MAX_DISTANCE = 12


def _distances(mask: np.ndarray, sources: list) -> dict:
    """8-connected step count from the nearest source to every free cell it
    reaches (a flood used to pick inputs; checks use the oracle's BFS)."""
    dist = {cell: 0 for cell in sources}
    frontier = deque(sources)
    rows, cols = mask.shape
    while frontier:
        i, j = frontier.popleft()
        for di in (-1, 0, 1):
            for dj in (-1, 0, 1):
                c = (i + di, j + dj)
                if (0 <= c[0] < rows and 0 <= c[1] < cols and not mask[c]
                        and c not in dist):
                    dist[c] = dist[(i, j)] + 1
                    frontier.append(c)
    return dist


def _batch_goal_sets(rng, mask) -> list:
    """Six goal sets per map (two each of one, two and three weighted goals)
    inside the largest connected region, each with the start cells within
    _BATCH_MAX_DISTANCE of it; queries on the map draw from these."""
    free = _free_cells(mask)
    region = sorted(max(
        (_distances(mask, [_pick(rng, free)]) for _ in range(3)), key=len
    ))
    sets = []
    for n_goals in (1, 1, 2, 2, 3, 3):
        goals = []
        while len(goals) < min(n_goals, len(region) - 1):
            g = _pick(rng, region)
            if g not in goals:
                goals.append(g)
        weights = [round(float(rng.uniform(0.5, 3.0)), 2) for _ in goals]
        starts = sorted(
            c for c, d in _distances(mask, goals).items()
            if 1 <= d <= _BATCH_MAX_DISTANCE
        )
        sets.append((goals, weights, starts))
    return sets


#: each drawn set of maps serves this many cycles of the kinds per map
#: (a few seconds of ops) before the stream draws the next set, so a run
#: averages over many layouts
_BATCH_REPEATS = 8


def _batch(rng, scratch_dir: str) -> Iterator[Op]:
    cli_file = os.path.join(scratch_dir, "batch_query.txt")
    while True:
        maps = _batch_maps(rng)
        pools = [_batch_goal_sets(rng, m) for m in maps]
        for k in range(len(maps) * len(_BATCH_KINDS) * _BATCH_REPEATS):
            # every map meets every kind, so each run, whatever its seed,
            # measures the same mix
            kind = _BATCH_KINDS[k % len(_BATCH_KINDS)]
            m = (k // len(_BATCH_KINDS)) % len(maps)
            yield _batch_op(rng, kind, maps[m], pools[m], cli_file)


def _batch_op(rng, kind: str, mask: np.ndarray, goal_sets: list, cli_file: str) -> Op:
    goals, weights, starts = goal_sets[int(rng.integers(len(goal_sets)))]
    start = _pick(rng, starts)
    header = {
        "horizon": "auto",
        "kappa": round(float(rng.uniform(0.6, 0.95)), 2),
        "lambda": round(float(rng.uniform(0.0, 0.8)), 2),
        "seed": int(rng.integers(1000)),
    }
    pinned = None
    if kind in ("greedy", "sample"):
        if rng.random() < 0.25:
            pinned = int(rng.integers(len(fp.ACTIONS)))
        elif rng.random() < 0.25:
            slack = int(rng.integers(1, 5))
            d = bfs_distance(fp.GridMap.from_mask(mask), start, goals)
            header["horizon"] = d + 1 + slack
    text = _goal_text(mask, start, goals, weights, header)
    if kind.startswith("cli_"):
        return _cli_op(kind, text, cli_file)
    if kind == "flows":
        return _flows_render_op(text)
    return _parsed_op(kind, text, pinned)


def _parsed_op(kind: str, text: str, pinned) -> Op:
    """Parse inside the timed region, then run the planner call."""
    op = _single_op(kind, text, fp.parse_scenario(text), pinned)

    def run():
        scenario = fp.parse_scenario(text)
        if pinned is not None:
            scenario = replace(scenario, start_action=fp.ACTIONS[pinned])
        return _call(kind, scenario)

    return replace(op, run=run)


def _flows_render_op(text: str) -> Op:
    scenario = fp.parse_scenario(text)
    ref = check.reference(scenario)

    def run():
        parsed = fp.parse_scenario(text)
        flows = fp.scenario_flows(parsed)
        picks = sorted({0, len(flows.posterior) // 2, len(flows.posterior) - 1})
        frames = [fp.render_frame(flows.posterior[t], parsed.grid) for t in picks]
        return flows, frames

    def verify(result):
        flows, frames = result
        check.check_flows(flows, ref)
        for frame in frames:
            check.check_frame(frame, ref.grid)

    return Op("flows", text, run, verify, lambda result: result[0].horizon)


def _cli_op(kind: str, text: str, path: str) -> Op:
    scenario = fp.parse_scenario(text)
    ref = check.reference(scenario)
    command = "plan" if kind == "cli_plan" else "mintime"

    # ops share one file, written here, outside the timed region: the stream
    # yields the next op only after this one ran
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)

    def run():
        out = io.StringIO()
        with redirect_stdout(out):
            code = cli.main([command, path])
        return code, out.getvalue()

    def verify(result):
        code, stdout = result
        if kind == "cli_plan":
            check.check_cli_plan(code, stdout, fp.greedy_plan(scenario), ref)
        else:
            check.check_cli_mintime(code, stdout, ref)

    def slices(result):
        return result[1].count("\n") - 1 if kind == "cli_plan" else int(result[1])

    return Op(kind, text, run, verify, slices)


# -- corridor ---------------------------------------------------------------

# (kind, rows, columns range, baffles): each slot's size band is narrow so
# that every run measures the same mix; the fourth slot's horizon of 690
# or more hits the float-underflow defect on purpose
_CORRIDOR_SLOTS = (
    ("greedy", 3, (430, 450), False),
    ("sample", 7, (300, 320), True),
    ("horizon", 5, (660, 700), True),
    ("greedy", 3, (690, 700), False),
    ("sample", 4, (480, 500), True),
    ("horizon", 6, (540, 560), False),
)


def _corridor_mask(rng, rows: int, cols: int, baffles: bool) -> np.ndarray:
    mask = np.zeros((rows, cols), dtype=np.uint8)
    if baffles:
        c = int(rng.integers(20, 60))
        while c < cols - 20:
            gap = int(rng.integers(rows))
            mask[:, c] = 1
            mask[gap, c] = 0
            c += int(rng.integers(30, 80))
    return mask


def _corridor(rng) -> Iterator[Op]:
    k = 0
    while True:
        kind, rows, (c0, c1), baffles = _CORRIDOR_SLOTS[k % len(_CORRIDOR_SLOTS)]
        k += 1
        cols = int(rng.integers(c0, c1 + 1))
        mask = _corridor_mask(rng, rows, cols, baffles)
        start = (int(rng.integers(rows)), 0)
        goal = (int(rng.integers(rows)), cols - 1)
        header = {"horizon": "auto", "seed": int(rng.integers(1000))}
        text = _goal_text(mask, start, [goal], [1.0], header)
        yield _single_op(kind, text, fp.parse_scenario(text))


# -- crowd ------------------------------------------------------------------

_CROWD_SIZE = 24
_CROWD_T_MAX = 150
_CROWD_WALL = 11
# agent counts cycle over 8-12 with two in three episodes at ten agents, so
# that the median episode of every run has ten agents
_CROWD_AGENTS = (10, 10, 8, 10, 10, 12, 10, 10, 9, 10, 10, 11)
# left-starting agents go from column 1 to 20, right-starting ones from 22
# to 3: every agent crosses the wall and no goal sits on a start cell
_CROWD_LANES = ((1, 20), (22, 3))


def _crowd(rng) -> Iterator[Op]:
    k = 0
    n = _CROWD_SIZE
    while True:
        n_agents = _CROWD_AGENTS[k % len(_CROWD_AGENTS)]
        k += 1
        mask = np.zeros((n, n), dtype=np.uint8)
        mask[:, _CROWD_WALL] = 1
        for lo, hi in ((2, 7), (9, 15), (17, 22)):
            row = int(rng.integers(lo, hi))
            mask[row : row + int(rng.integers(1, 3)), _CROWD_WALL] = 0
        agents = []
        for lane, (start_col, goal_col) in enumerate(_CROWD_LANES):
            count = (n_agents + 1 - lane) // 2
            # sorted rows paired in order keep each agent's row change small
            starts = np.sort(rng.choice(n, count, replace=False))
            goals = np.sort(rng.choice(n, count, replace=False))
            for r0, r1 in zip(starts, goals):
                agents.append(((int(r0), start_col), (int(r1), goal_col)))
        agents = [(a + 1, s, g) for a, (s, g) in enumerate(agents)]
        lines = [f"agent {a} {s[0]},{s[1]} -> {g[0]},{g[1]}" for a, s, g in agents]
        text = scenario_text(mask, {}, {"t_max": _CROWD_T_MAX}) + "\n".join(lines) + "\n"
        grid = fp.GridMap.from_mask(mask)
        specs = [fp.AgentSpec(a, s, [g], policy="wait") for a, s, g in agents]
        yield Op(
            "episode",
            text,
            lambda specs=specs, grid=grid: fp.simulate(
                specs, grid, _CROWD_T_MAX, schedule="fixed", seed=0
            ),
            lambda result, specs=specs, grid=grid: check.check_episode(
                result, specs, grid
            ),
            lambda result: result.t_final,
        )
