"""Sequentially scheduled agents replanning on dynamic maps.

Each agent sees the static map plus everyone else's current cell as
obstacles (and optionally some other agents as goals).  Agents act one at
a time inside a round; a move is visible to everyone scheduled after it,
which rules out collisions by construction.  An agent without a plan
this round falls back to its policy: abort raises, and wait (the default)
and sample both stand still and replan next round with a free heading.
An episode censors every 3x3 neighbourhood pattern once per sharpness
(``grid._PatternTable``), and each agent-round gathers the dynamic map's
kernel from that table instead of censoring the map's cells again.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from . import engine
from .errors import InvalidGoalError, NoFeasiblePathError, UnreachableError
from .grid import (
    Cell,
    GridMap,
    N_ACTIONS,
    STILL,
    _PATTERNS,
    _PatternTable,
    _check_stiffness,
    _codes,
    action_matrix,
    default_masks,
)
from .planner import (
    POLICY_ABORT,
    POLICY_WAIT,
    GoalSpec,
    Path,
    PlanSetup,
    _check_free,
    _check_policy,
    _check_seed,
    _check_sharpness,
    _commit_next,
    _normalized_goals,
    goal_marginal,
)

SCHEDULES = ("fixed", "random")


def _check_schedule(schedule: str) -> None:
    """Refuse a schedule other than fixed and random."""
    if schedule not in SCHEDULES:
        raise ValueError(f"unknown schedule {schedule!r}")


def _check_t_max(t_max: int) -> None:
    """Refuse a time budget without the start slice."""
    if t_max < 1:
        raise ValueError(f"t_max must be at least 1, got {t_max}")


@dataclass(frozen=True)
class AgentSpec:
    """One agent's identity, endpoints, motion parameters, and fallback."""

    agent_id: int
    start_cell: Cell
    goals: GoalSpec = ()
    sharpness: float = 0.8
    stiffness: float = 0.0
    policy: str = POLICY_WAIT
    chase: tuple[int, ...] = ()  # other agents whose positions become goals

    def __post_init__(self):
        object.__setattr__(
            self,
            "goals",
            _normalized_goals(self.goals) if self.goals else (),
        )
        if not self.goals and not self.chase:
            raise InvalidGoalError(
                f"agent {self.agent_id} has neither goals nor agents to chase"
            )
        _check_sharpness(self.sharpness)
        _check_stiffness(self.stiffness)
        _check_policy(self.policy)


@dataclass(frozen=True)
class AgentSnapshot:
    agent_id: int
    cell: Cell
    action: int | None  # current heading, None before the first move
    arrived: bool


@dataclass(frozen=True)
class WorldState:
    """Positions and statuses of every agent at one global time slice."""

    time: int
    agents: tuple[AgentSnapshot, ...]

    def by_id(self) -> dict[int, AgentSnapshot]:
        return {a.agent_id: a for a in self.agents}

    def all_arrived(self) -> bool:
        return all(a.arrived for a in self.agents)


@dataclass(frozen=True)
class SimulationResult:
    states: tuple[WorldState, ...]
    paths: dict[int, Path]
    timed_out: bool

    @property
    def t_final(self) -> int:
        return self.states[-1].time


def dynamic_map(
    grid: GridMap,
    snapshots: Mapping[int, AgentSnapshot] | Sequence[AgentSnapshot],
    agent_id: int,
    include_arrived: bool = True,
    transparent: tuple[int, ...] = (),
) -> GridMap:
    """The map one agent plans on: static obstacles plus other agents."""
    if isinstance(snapshots, Mapping):
        snapshots = list(snapshots.values())
    extra = [
        s.cell
        for s in snapshots
        if s.agent_id != agent_id
        and s.agent_id not in transparent
        and (include_arrived or not s.arrived)
    ]
    return grid.with_obstacles(extra)


def _goal_cells(spec: AgentSpec, others: Mapping[int, AgentSnapshot]):
    return [*spec.goals, *((others[target].cell, 1.0) for target in spec.chase)]


class _AgentRunner:
    """Replans one agent per round on kernels gathered from ``table``."""

    def __init__(self, spec: AgentSpec, table: _PatternTable):
        self.spec = spec
        self.table = table
        self.p_action = action_matrix(spec.stiffness)

    def plan_step(
        self,
        grid: GridMap,
        snapshots: Mapping[int, AgentSnapshot],
        remaining: int,
        rng: np.random.Generator,
        arrived_vanish: bool = False,
    ) -> tuple[Cell, int, int | None, bool]:
        """One greedy step; returns (next_cell, executed_action, heading, arrived).

        The flow is re-instantiated at the agent's current (cell, heading)
        joint delta; a heading of None (before the first move) leaves the
        initial action free.  One max-product sweep from the goal gives
        both the minimum horizon and the chain the step is decoded with;
        the step reads only its slice 2 on the agent's 3 x 3, which
        ``engine._max_chain`` returns as (cell, action) pairs while its
        sweep carries one value per cell under uniform switching (the
        default stiffness 0).  The kernel is gathered from ``table`` by the
        map's patterns.
        The executed action is the stored heading, backfilled from the
        committed move when the heading was free.
        Without a plan this round (``_blocked``) abort raises and every
        other policy, sample included, stands still and frees the heading.
        """
        spec = self.spec
        me = snapshots[spec.agent_id]
        try:
            dyn = dynamic_map(
                grid,
                snapshots,
                spec.agent_id,
                include_arrived=not arrived_vanish,
                transparent=spec.chase,
            )
            goal = goal_marginal(_goal_cells(spec, snapshots), dyn)
        except InvalidGoalError:
            return self._blocked(me)

        if goal[me.cell] > 0.0:
            return me.cell, STILL.index, None, True
        if remaining < 2:
            return self._blocked(me)

        kernel = self.table.kernel(dyn, _codes(dyn.free))
        try:
            crops, pairs = engine._max_chain(
                kernel, self.p_action, me.cell, goal, remaining, me.action
            )
        except UnreachableError:
            return self._blocked(me)

        # the greedy commit of slice 2 reads that slice alone
        executed, cell, heading = _commit_next(
            PlanSetup(kernel, self.p_action, goal), [None, pairs], len(crops) + 1, 2,
            me.cell, me.action, spec.policy, rng, draw=False,
        )
        if cell in {snapshots[t].cell for t in spec.chase}:
            # capture without co-occupying the target's cell
            return me.cell, STILL.index, me.action, True
        return cell, executed, heading, goal[cell] > 0.0

    def _blocked(self, me: AgentSnapshot) -> tuple[Cell, int, None, bool]:
        """No plan this round (goal blocked, or no path in the slices left):
        abort raises, any other policy stands still with its heading free."""
        if self.spec.policy == POLICY_ABORT:
            raise NoFeasiblePathError(
                f"agent {self.spec.agent_id} blocked at {me.cell}"
            )
        return me.cell, STILL.index, None, False


def _check_specs(specs: Sequence[AgentSpec], grid: GridMap) -> None:
    """Refuse agents that share an id or a start cell, a start or a static
    goal that is not a free cell of ``grid``, and a chase of an agent that
    is not another one of ``specs``."""
    ids = [s.agent_id for s in specs]
    if len(set(ids)) != len(ids):
        raise ValueError("agent ids must be unique")
    starts = [s.start_cell for s in specs]
    if len(set(starts)) != len(starts):
        raise ValueError("agents must start on distinct cells")
    for s in specs:
        _check_free(s.start_cell, grid, f"agent {s.agent_id} start", ValueError)
        for cell, _ in s.goals:  # another agent may hold a goal, a wall may not
            _check_free(cell, grid, f"agent {s.agent_id} goal {cell}")
        for target in s.chase:
            if target == s.agent_id or target not in ids:
                raise ValueError(
                    f"agent {s.agent_id} chases agent {target}, "
                    f"which is not another agent of the run"
                )


def _check_state(
    state: WorldState, ids: list[int], grid: GridMap, order: Sequence[int], vanish: bool
) -> None:
    """Refuse a state without one snapshot per id of ``ids``, an agent off
    the free cells of ``grid``, with a heading that is no action or on the
    cell of one that stays on the map (``vanish`` takes the arrived off),
    and an order that names another id."""
    agents = [a.agent_id for a in state.agents]
    for aid in ids:
        if (n := agents.count(aid)) != 1:
            raise ValueError(f"agent {aid} has {n} snapshots in the state, not one")
    held = {}
    for a in state.agents:  # one without a spec stands as an obstacle
        _check_free(a.cell, grid, f"agent {a.agent_id} cell {a.cell}", ValueError)
        if a.action is not None and a.action not in range(N_ACTIONS):
            raise ValueError(f"agent {a.agent_id} heading {a.action} is not an action")
        if vanish and a.arrived:
            continue
        if (other := held.setdefault(a.cell, a.agent_id)) != a.agent_id:
            raise ValueError(f"agents {other} and {a.agent_id} share cell {a.cell}")
    for aid in order:
        if aid not in ids:
            raise ValueError(f"the order names agent {aid}, which has no spec")


def _runners(specs: Sequence[AgentSpec]) -> dict[int, _AgentRunner]:
    """One runner per agent; every neighbourhood pattern is censored once
    per sharpness, in a table shared by the runners of that sharpness."""
    tables = {}
    for s in specs:
        if s.sharpness not in tables:
            masks = default_masks(s.sharpness)
            tables[s.sharpness] = _PatternTable(masks, np.arange(_PATTERNS))
    return {s.agent_id: _AgentRunner(s, tables[s.sharpness]) for s in specs}


def step_world(
    grid: GridMap,
    state: WorldState,
    specs: Sequence[AgentSpec],
    t_max: int,
    order: Sequence[int],
    rng: np.random.Generator,
    runners: Mapping[int, _AgentRunner] | None = None,
    paths: Mapping[int, list] | None = None,
    arrived_vanish: bool = False,
) -> WorldState:
    """Advance the world one slice, scheduling agents in the given order.

    Position updates apply immediately, so agents later in the order see
    the moves of earlier ones.  Without ``runners`` it checks ``specs`` as
    ``simulate`` does, and ``state`` and ``order`` against them, then
    builds them.
    """
    if runners is None:
        _check_specs(specs, grid)
        _check_state(state, [s.agent_id for s in specs], grid, order, arrived_vanish)
        runners = _runners(specs)
    snapshots = state.by_id()
    remaining = t_max - state.time + 1
    for aid in order:
        me = snapshots[aid]
        if me.arrived:
            continue
        cell, executed, heading, arrived = runners[aid].plan_step(
            grid, snapshots, remaining, rng, arrived_vanish
        )
        snapshots[aid] = AgentSnapshot(aid, cell, heading, arrived)
        if paths is not None:
            steps = paths[aid]
            t_prev, prev_cell, _ = steps[-1]
            steps[-1] = (t_prev, prev_cell, executed)
            steps.append((state.time + 1, cell, None))

    moving = [
        s.cell for s in snapshots.values() if not (arrived_vanish and s.arrived)
    ]
    assert len(set(moving)) == len(moving), "two agents share a cell"
    assert all(grid.is_free(c) for c in moving), "agent on an obstacle"
    return WorldState(state.time + 1, tuple(snapshots[s.agent_id] for s in specs))


def simulate(
    specs: Sequence[AgentSpec],
    grid: GridMap,
    t_max: int,
    schedule: str = "fixed",
    seed: int = 0,
    arrived_vanish: bool = False,
) -> SimulationResult:
    """Run rounds until every agent arrived or the time budget is spent.

    ``schedule`` is "fixed" (spec order every round) or "random"
    (seeded permutation per round).  Arrived agents stay on the map as
    obstacles unless ``arrived_vanish`` removes them.  Running out of
    time is reported via ``timed_out`` on the result, not an exception,
    and the partial trace is returned.
    """
    _check_schedule(schedule)
    _check_t_max(t_max)
    _check_seed(seed)
    _check_specs(specs, grid)
    ids = [s.agent_id for s in specs]

    rng = np.random.default_rng(seed)
    runners = _runners(specs)

    snapshots = {}
    for s in specs:
        static_goals = {cell for cell, _ in s.goals}
        arrived = s.start_cell in static_goals
        snapshots[s.agent_id] = AgentSnapshot(s.agent_id, s.start_cell, None, arrived)
    state = WorldState(1, tuple(snapshots[s.agent_id] for s in specs))
    states = [state]
    paths = {aid: [(1, snapshots[aid].cell, None)] for aid in ids}

    while not state.all_arrived() and state.time < t_max:
        order = list(ids) if schedule == "fixed" else [
            ids[k] for k in rng.permutation(len(ids))
        ]
        state = step_world(
            grid, state, specs, t_max, order, rng, runners, paths, arrived_vanish
        )
        states.append(state)

    final = state.by_id()
    result_paths = {
        aid: Path(tuple(steps), final[aid].arrived) for aid, steps in paths.items()
    }
    return SimulationResult(
        states=tuple(states),
        paths=result_paths,
        timed_out=not state.all_arrived(),
    )
