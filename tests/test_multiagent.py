from __future__ import annotations

import re
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from flowplan import (
    AgentSpec,
    GridMap,
    InvalidGoalError,
    NoFeasiblePathError,
    STILL,
    Scenario,
    UnreachableError,
    action_matrix,
    build_kernel,
    dynamic_map,
    goal_marginal,
    greedy_plan,
    min_time,
    simulate,
    validate_path,
)
from flowplan import engine, multiagent
from flowplan.grid import N_ACTIONS, default_masks
from flowplan.multiagent import AgentSnapshot
from flowplan.oracle import dense_chain
from flowplan.planner import PlanSetup, _commit_next
from flowplan.scenario_io import parse_scenario
from flowplan import scenarios


def corridor_world():
    return parse_scenario(scenarios.load("corridor"))


def assert_no_co_occupancy(result, grid):
    for world in result.states:
        cells = [s.cell for s in world.agents]
        assert len(set(cells)) == len(cells)
        assert all(grid.is_free(c) for c in cells)


def test_dynamic_map_single_agent_equals_static():
    grid = GridMap.empty(4, 4).with_obstacles([(1, 1)])
    snaps = [AgentSnapshot(1, (0, 0), None, False)]
    assert dynamic_map(grid, snaps, 1) == grid


def test_dynamic_map_two_agents_one_extra_obstacle():
    grid = GridMap.empty(4, 4)
    snaps = [
        AgentSnapshot(1, (0, 0), None, False),
        AgentSnapshot(2, (2, 2), None, False),
    ]
    dyn = dynamic_map(grid, snaps, 1)
    assert dyn.mask.sum() == 1 and dyn.mask[2, 2] == 1
    dyn2 = dynamic_map(grid, snaps, 2)
    assert dyn2.mask.sum() == 1 and dyn2.mask[0, 0] == 1


def test_blocked_corridor_is_unreachable_while_occupied():
    ws = corridor_world()
    # agent 1 sits inside the one-cell passage; agent 2 wants to cross
    snaps = [
        AgentSnapshot(1, (2, 3), None, False),
        AgentSnapshot(2, (1, 4), None, False),
    ]
    dyn = dynamic_map(ws.grid, snaps, 2)
    kernel = build_kernel(dyn)
    goal = goal_marginal([(3, 1)], dyn)
    with pytest.raises(UnreachableError):
        min_time(kernel, action_matrix(0.0), (1, 4), goal, 60)


def test_corridor_scenario_waits_and_arrives():
    ws = corridor_world()
    result = simulate(ws.agents, ws.grid, ws.t_max, ws.schedule, ws.seed)
    assert not result.timed_out
    assert all(p.reached_goal for p in result.paths.values())
    # liveness bound: well inside four times the summed BFS distances (4 + 4)
    assert result.t_final <= 4 * 8
    stills = sum(
        1 for p in result.paths.values() for _, _, a in p.steps if a == STILL.index
    )
    assert stills >= 1
    assert_no_co_occupancy(result, ws.grid)
    for path in result.paths.values():
        validate_path(path, ws.grid)


WALLED7 = GridMap.empty(7, 7).with_obstacles([(3, 3), (3, 4)])
MAZE15 = parse_scenario(scenarios.load("maze15"))


# each agent round runs the greedy decoder's step for one slice, so a lone
# agent must retrace greedy_plan exactly, whatever the map and parameters
@pytest.mark.parametrize(
    "grid, start, goals, sharpness, stiffness",
    [
        pytest.param(WALLED7, (0, 0), [(6, 5)], 0.8, 0.0, id="walled7"),
        pytest.param(
            MAZE15.grid, MAZE15.start_cell, MAZE15.goals, 0.8, 0.0, id="maze15"
        ),
        pytest.param(
            WALLED7, (0, 0), [((6, 5), 1.0), ((0, 6), 3.0)], 0.8, 0.0,
            id="weighted-goals",
        ),
        pytest.param(WALLED7, (0, 0), [(6, 5)], 0.9, 0.5, id="stiffness-0.5"),
        pytest.param(WALLED7, (0, 0), [(6, 5)], 0.9, 1.0, id="stiffness-1"),
        pytest.param(WALLED7, (0, 0), [(6, 5)], 0.6, 0.0, id="sharpness-0.6"),
    ],
)
def test_single_agent_stepping_reduces_to_greedy(
    grid, start, goals, sharpness, stiffness
):
    greedy = greedy_plan(
        Scenario(grid, start, goals, sharpness=sharpness, stiffness=stiffness)
    )
    agent = AgentSpec(1, start, goals, sharpness=sharpness, stiffness=stiffness)
    result = simulate([agent], grid, t_max=60)
    assert result.paths[1].steps == greedy.steps


def test_five_agent_fixture_all_arrive_within_budget():
    ws = parse_scenario(scenarios.load("agents5"))
    assert len(ws.agents) == 5 and ws.t_max == 40
    result = simulate(ws.agents, ws.grid, ws.t_max, ws.schedule, ws.seed)
    assert not result.timed_out
    assert result.t_final <= 40
    assert all(p.reached_goal for p in result.paths.values())
    assert_no_co_occupancy(result, ws.grid)


def test_schedule_order_changes_who_waits():
    ws = corridor_world()
    first = simulate(ws.agents, ws.grid, ws.t_max)
    swapped = simulate(tuple(reversed(ws.agents)), ws.grid, ws.t_max)

    def waits(result):
        return {
            aid: sum(1 for _, _, a in p.steps if a == STILL.index)
            for aid, p in result.paths.items()
        }

    assert waits(first) != waits(swapped)


def test_fixed_order_simulation_is_deterministic():
    ws = corridor_world()
    a = simulate(ws.agents, ws.grid, ws.t_max, "fixed", 0)
    b = simulate(ws.agents, ws.grid, ws.t_max, "fixed", 0)
    assert [w.agents for w in a.states] == [w.agents for w in b.states]
    assert a.paths == b.paths


def test_random_schedule_is_deterministic_per_seed():
    ws = parse_scenario(scenarios.load("agents5"))
    a = simulate(ws.agents, ws.grid, ws.t_max, "random", 7)
    b = simulate(ws.agents, ws.grid, ws.t_max, "random", 7)
    assert [w.agents for w in a.states] == [w.agents for w in b.states]


def test_agents_starting_on_goals_arrive_immediately():
    grid = GridMap.empty(4, 4)
    specs = [AgentSpec(1, (0, 0), [(0, 0)]), AgentSpec(2, (3, 3), [(3, 3)])]
    result = simulate(specs, grid, t_max=10)
    assert len(result.states) == 1
    assert result.states[0].all_arrived()
    assert result.paths[1].steps == ((1, (0, 0), None),)


def test_timeout_returns_partial_trace():
    # goal permanently blocked by an arrived agent sitting on the only door
    grid = GridMap.from_mask(
        np.array(
            [
                [0, 1, 0],
                [0, 1, 0],
                [0, 0, 0],
            ],
            dtype=np.uint8,
        )
    )
    specs = [
        AgentSpec(1, (2, 1), [(2, 1)]),  # arrived at once, blocks the door
        AgentSpec(2, (0, 0), [(0, 2)]),
    ]
    result = simulate(specs, grid, t_max=6)
    assert result.timed_out
    assert result.t_final == 6
    assert not result.paths[2].reached_goal
    assert_no_co_occupancy(result, grid)


def test_chase_mode_captures_a_sitting_target():
    grid = GridMap.empty(5, 5)
    specs = [
        AgentSpec(1, (4, 4), [(4, 4)]),        # arrived immediately
        AgentSpec(2, (0, 0), chase=(1,)),       # hunts agent 1
    ]
    result = simulate(specs, grid, t_max=20)
    assert not result.timed_out
    hunter = result.paths[2]
    assert hunter.reached_goal
    # capture happens from an adjacent cell, never on top of the target
    assert hunter.cells()[-1] != (4, 4)
    assert max(abs(hunter.cells()[-1][0] - 4), abs(hunter.cells()[-1][1] - 4)) == 1


def test_simulate_validates_inputs():
    grid = GridMap.empty(3, 3)
    with pytest.raises(ValueError):
        simulate([AgentSpec(1, (0, 0), [(2, 2)]), AgentSpec(1, (1, 1), [(2, 2)])], grid, 10)
    with pytest.raises(ValueError):
        simulate([AgentSpec(1, (0, 0), [(2, 2)]), AgentSpec(2, (0, 0), [(2, 2)])], grid, 10)
    with pytest.raises(ValueError):
        simulate([AgentSpec(1, (0, 0), [(2, 2)])], grid, 10, schedule="sometimes")
    with pytest.raises(ValueError, match="keeps no outward move"):
        AgentSpec(1, (0, 0), [(2, 2)], sharpness=1.0)
    with pytest.raises(ValueError, match="unknown policy 'bogus'"):
        AgentSpec(1, (0, 0), [(1, 1)], policy="bogus")
    with pytest.raises(ValueError, match="non-negative integer, got -1"):
        simulate([AgentSpec(1, (0, 0), [(2, 2)])], grid, 10, seed=-1)


@pytest.mark.parametrize("goals, why", [
    ([(9, 9)], "goal (9, 9) is off the 3x3 grid"),
    ([(2, 2)], "goal (2, 2) is on an obstacle"),
    ([(0, 2), (2, 2)], "goal (2, 2) is on an obstacle"),
])
def test_simulate_refuses_a_static_goal_no_agent_can_reach(goals, why):
    # a goal off the grid or on a wall is never free: without this check
    # the agent waited every round and the episode timed out
    grid = GridMap.empty(3, 3).with_obstacles([(2, 2)])
    specs = [AgentSpec(2, (1, 1), [(0, 0)]), AgentSpec(1, (0, 0), goals)]
    with pytest.raises(InvalidGoalError, match=re.escape(f"agent 1 {why}")):
        simulate(specs, grid, 10)
    with pytest.raises(ValueError, match=re.escape("agent 3 start is off the 3x3 grid")):
        simulate([AgentSpec(3, (0, 3), [(0, 0)])], grid, 10)


@pytest.mark.parametrize("goals, why", [
    ([(9, 9)], "goal (9, 9) is off the 3x3 grid"),
    ([(2, 2)], "goal (2, 2) is on an obstacle"),
])
def test_step_world_refuses_the_specs_simulate_refuses(goals, why):
    # without its own runners step_world checks the specs it builds them
    # from: such an agent used to stand on (0, 0) round after round
    grid = GridMap.empty(3, 3).with_obstacles([(2, 2)])
    specs = [AgentSpec(1, (0, 0), goals)]
    state = multiagent.WorldState(1, (AgentSnapshot(1, (0, 0), None, False),))
    rng = np.random.default_rng(0)
    with pytest.raises(InvalidGoalError, match=re.escape(f"agent 1 {why}")):
        multiagent.step_world(grid, state, specs, 10, [1], rng)
    chaser = [AgentSpec(1, (0, 0), chase=(1,))]
    with pytest.raises(ValueError, match="agent 1 chases agent 1,"):
        multiagent.step_world(grid, state, chaser, 10, [1], rng)


@pytest.mark.parametrize("agents, order, why", [
    ([(1, (9, 9), None), (2, (3, 3), None)], [1, 2], "agent 1 cell (9, 9) is off the 4x4 grid"),
    ([(1, (0, 0), None), (2, (1, 1), None)], [1, 2], "agent 2 cell (1, 1) is on an obstacle"),
    ([(1, (0, 0), None)], [1], "agent 2 has 0 snapshots in the state"),
    ([(2, (3, 3), None), (1, (0, 0), None), (2, (3, 2), 5)], [1], "agent 2 has 2 snapshots"),
    ([(1, (0, 0), 12), (2, (3, 3), None)], [1, 2], "agent 1 heading 12 is not an action"),
    ([(1, (0, 0), None), (2, (3, 3), None)], [1, 2, 7], "names agent 7, which has no spec"),
    ([(1, (0, 0), None), (2, (0, 0), None)], [1, 2], "agents 1 and 2 share cell (0, 0)"),
])
def test_step_world_refuses_a_state_that_does_not_match_its_specs(agents, order, why):
    # these raised a bare IndexError or KeyError in the round, and two
    # agents on one cell read "start cell (0, 0) is not a free cell"
    grid = GridMap.empty(4, 4).with_obstacles([(1, 1)])
    specs = [AgentSpec(1, (0, 0), [(0, 3)]), AgentSpec(2, (3, 3), [(3, 0)])]
    state = multiagent.WorldState(
        1, tuple(AgentSnapshot(aid, cell, heading, False) for aid, cell, heading in agents)
    )
    with pytest.raises(ValueError, match=re.escape(why)):
        multiagent.step_world(grid, state, specs, 10, order, np.random.default_rng(0))


def test_step_world_lets_a_moving_agent_share_a_vanished_agents_cell():
    # with arrived_vanish an arrived agent leaves the map, so another may
    # step onto its cell
    grid = GridMap.empty(4, 4)
    specs = [AgentSpec(1, (0, 0), [(0, 3)]), AgentSpec(2, (3, 3), [(0, 0)])]
    state = multiagent.WorldState(
        1, (AgentSnapshot(1, (0, 0), None, False), AgentSnapshot(2, (0, 0), None, True))
    )
    rng = np.random.default_rng(0)
    after = multiagent.step_world(grid, state, specs, 10, [1, 2], rng, arrived_vanish=True)
    assert after.by_id()[1].cell != (0, 0) and after.by_id()[2].cell == (0, 0)
    with pytest.raises(ValueError, match="agents 1 and 2 share cell"):
        multiagent.step_world(grid, state, specs, 10, [1, 2], rng)


@pytest.mark.parametrize("chase, target", [((7,), 7), ((2, 1), 1)])
def test_simulate_refuses_a_chase_of_no_other_agent(chase, target):
    # a chase of an unknown id raised a bare KeyError in the first round,
    # and an agent chasing itself "arrived" on round 1 without moving
    grid = GridMap.empty(4, 4)
    specs = [AgentSpec(1, (0, 0), [(3, 3)], chase=chase), AgentSpec(2, (3, 0), [(0, 3)])]
    want = f"agent 1 chases agent {target}, which is not another agent of the run"
    with pytest.raises(ValueError, match=re.escape(want)):
        simulate(specs, grid, 10)


def test_a_round_without_two_slices_left_stands_still():
    # step_world called at the last slice of the budget: one slice is left,
    # so no move fits, though the goal is next door
    grid = GridMap.empty(1, 3)
    specs = [AgentSpec(1, (0, 0), [(0, 1)]), AgentSpec(2, (0, 2), [(0, 1)])]
    state = multiagent.WorldState(
        4, tuple(AgentSnapshot(s.agent_id, s.start_cell, None, False) for s in specs)
    )
    rng = np.random.default_rng(0)
    after = multiagent.step_world(grid, state, specs, 4, [1, 2], rng)
    assert after.agents == tuple(
        AgentSnapshot(s.agent_id, s.start_cell, None, False) for s in specs
    )
    abort = [replace(specs[0], policy="abort")]
    with pytest.raises(NoFeasiblePathError, match=r"agent 1 blocked at \(0, 0\)"):
        multiagent.step_world(grid, state, abort, 4, [1], rng)


@pytest.mark.parametrize("stiffness", [0.0, 0.5, 1.0])
def test_a_wait_leaves_the_heading_free(stiffness):
    # agent 1's goal is held by agent 2 in round one, so agent 1 waits; at
    # stiffness 1 a still heading would bind it to standing still for good
    grid = GridMap.empty(3, 3)
    specs = [AgentSpec(1, (0, 0), [(0, 2)], stiffness=stiffness),
             AgentSpec(2, (0, 2), [(2, 2)])]
    result = simulate(specs, grid, 12)
    assert not result.timed_out
    assert result.states[1].by_id()[1] == AgentSnapshot(1, (0, 0), None, False)
    assert result.paths[1].steps[0] == (1, (0, 0), STILL.index)
    assert result.paths[1].cells()[-1] == (0, 2)
    assert result.t_final == 4


@pytest.mark.parametrize("stiffness", [1.5, float("nan")])
def test_agent_spec_refuses_a_stiffness_outside_the_unit_interval(stiffness):
    with pytest.raises(ValueError, match=r"stiffness must be in \[0, 1\]"):
        AgentSpec(1, (0, 0), [(2, 2)], stiffness=stiffness)


def test_simulate_refuses_a_budget_below_one_slice():
    grid = GridMap.empty(3, 3)
    specs = [AgentSpec(1, (0, 0), [(2, 2)]), AgentSpec(2, (2, 0), [(0, 2)])]
    for t_max in (0, -3):
        with pytest.raises(ValueError, match=f"at least 1, got {t_max}"):
            simulate(specs, grid, t_max)
    # one slice is a budget: the start, then a time-out
    result = simulate(specs, grid, 1)
    assert result.timed_out and result.t_final == 1


def test_vanishing_arrived_agents_unblock_a_door():
    # same door-blocking setup as the timeout test, but arrived agents vanish
    grid = GridMap.from_mask(
        np.array(
            [
                [0, 1, 0],
                [0, 1, 0],
                [0, 0, 0],
            ],
            dtype=np.uint8,
        )
    )
    specs = [
        AgentSpec(1, (2, 1), [(2, 1)]),
        AgentSpec(2, (0, 0), [(0, 2)]),
    ]
    result = simulate(specs, grid, t_max=10, arrived_vanish=True)
    assert not result.timed_out
    assert result.paths[2].reached_goal


def test_sample_policy_agents_share_no_cell_and_all_arrive():
    ws = corridor_world()
    sampling = tuple(
        AgentSpec(a.agent_id, a.start_cell, a.goals, policy="sample")
        for a in ws.agents
    )
    result = simulate(sampling, ws.grid, ws.t_max, "fixed", 3)
    assert_no_co_occupancy(result, ws.grid)
    assert not result.timed_out
    assert all(p.reached_goal for p in result.paths.values())


def _rebuilding_plan_step(self, grid, snapshots, remaining, rng, arrived_vanish=False):
    """The runner's step as a reference: a fresh kernel of the dynamic map
    and the max-product chain on (cell, action) pairs, ``_until_start`` of
    the unclipped ``_goal_sweep``, read whole-grid, every round."""
    spec = self.spec
    me = snapshots[spec.agent_id]
    try:
        dyn = dynamic_map(
            grid, snapshots, spec.agent_id,
            include_arrived=not arrived_vanish, transparent=spec.chase,
        )
        goal = goal_marginal(multiagent._goal_cells(spec, snapshots), dyn)
    except InvalidGoalError:
        return self._blocked(me)
    if goal[me.cell] > 0.0:
        return me.cell, STILL.index, None, True
    kernel = build_kernel(dyn, default_masks(spec.sharpness))
    goal = engine._checked_goal(goal, kernel)
    sweep = engine._goal_sweep(kernel, self.p_action, goal, engine._MAX)
    try:
        crops = engine._until_start(sweep, kernel, me.cell, me.action, max(remaining, 2))
        backward = [crop[engine._grow(None, kernel)] for crop in crops][::-1]
    except UnreachableError:
        return self._blocked(me)
    horizon = len(backward) + 1
    if horizon > remaining:
        return self._blocked(me)
    setup = PlanSetup(kernel, self.p_action, goal)
    executed, cell, heading = _commit_next(
        setup, backward, horizon, 2, me.cell, me.action, spec.policy, rng, False
    )
    if cell in {snapshots[t].cell for t in spec.chase}:
        return me.cell, STILL.index, me.action, True
    return cell, executed, heading, goal[cell] > 0.0


def _crowd_like(seed: int, n_agents: int):
    """A walled 24 x 24 map with a few doors, half the agents crossing it
    left to right and half right to left."""
    rng = np.random.default_rng(seed)
    mask = np.zeros((24, 24), dtype=np.uint8)
    mask[:, 11] = 1
    for lo, hi in ((2, 7), (9, 15), (17, 22)):
        row = int(rng.integers(lo, hi))
        mask[row : row + int(rng.integers(1, 3)), 11] = 0
    specs = []
    for lane, (start_col, goal_col) in enumerate(((1, 20), (22, 3))):
        count = (n_agents + 1 - lane) // 2
        starts = np.sort(rng.choice(24, count, replace=False))
        goals = np.sort(rng.choice(24, count, replace=False))
        for r0, r1 in zip(starts, goals):
            specs.append(
                AgentSpec(
                    len(specs) + 1,
                    (int(r0), start_col),
                    [(int(r1), goal_col)],
                    sharpness=float(rng.choice([0.7, 0.8])),
                    stiffness=float(rng.choice([0.0, 0.3])),
                    policy=str(rng.choice(["wait", "sample"])),
                )
            )
    return GridMap.from_mask(mask), specs


@pytest.mark.parametrize(
    "seed, n_agents, schedule, vanish",
    [(1, 8, "fixed", False), (2, 10, "random", True), (3, 12, "fixed", True),
     (4, 9, "random", False)],
)
def test_simulate_matches_a_runner_that_rebuilds_its_kernel(
    monkeypatch, seed, n_agents, schedule, vanish
):
    grid, specs = _crowd_like(seed, n_agents)
    got = simulate(specs, grid, 150, schedule, seed, vanish)
    monkeypatch.setattr(multiagent._AgentRunner, "plan_step", _rebuilding_plan_step)
    want = simulate(specs, grid, 150, schedule, seed, vanish)
    assert got == want


@st.composite
def worlds(draw):
    """Maps of at most 6 x 6, 1 x N included, with 2-4 agents under the wait
    and sample policies at stiffness 0, 0.5 or 1, now and then chasing."""
    rows, cols = draw(
        st.tuples(st.just(1), st.integers(2, 6))
        | st.tuples(st.integers(1, 6), st.integers(1, 6))
    )
    cells = [(i, j) for i in range(rows) for j in range(cols)]
    walls = draw(st.sets(st.sampled_from(cells), max_size=len(cells) // 3))
    free = [c for c in cells if c not in walls]
    assume(len(free) >= 2)
    n_agents = draw(st.integers(2, min(4, len(free))))
    starts = draw(st.lists(st.sampled_from(free), min_size=n_agents,
                           max_size=n_agents, unique=True))
    specs = []
    for k, start in enumerate(starts):
        goals = draw(st.lists(st.sampled_from(free), min_size=1, max_size=2,
                              unique=True))
        others = [a for a in range(1, n_agents + 1) if a != k + 1]
        chase = (draw(st.sampled_from(others)),) if draw(st.integers(0, 5)) == 0 else ()
        if chase and draw(st.booleans()):
            goals = []
        specs.append(AgentSpec(
            k + 1, start, goals,
            sharpness=draw(st.sampled_from([0.8, 0.6])),
            stiffness=draw(st.sampled_from([0.0, 0.5, 1.0])),
            policy=draw(st.sampled_from(["wait", "sample"])),
            chase=chase,
        ))
    grid = GridMap.empty(rows, cols).with_obstacles(sorted(walls))
    return (
        grid, specs, draw(st.integers(1, 2 * (rows + cols))),
        draw(st.sampled_from(["fixed", "random"])), draw(st.integers(0, 2**16)),
        draw(st.booleans()),
    )


def _pair_times(dyn, spec, goal, slices, chains):
    """Minimum slices from each (cell, action) pair to a goal, 0 beyond
    ``slices``, with the joint and final-slice supports of the dense chain
    on ``dyn``: boolean powers of ``oracle.dense_chain``."""
    key = (dyn.mask.tobytes(), spec.sharpness, spec.stiffness)
    if key not in chains:
        chain = dense_chain(
            build_kernel(dyn, default_masks(spec.sharpness)),
            action_matrix(spec.stiffness),
        )
        chains[key] = chain.joint > 0.0, chain.to_state > 0.0
    joint, to_state = chains[key]
    times = np.zeros(joint.shape[0], dtype=int)
    reach = to_state @ (goal.reshape(-1) > 0.0)  # a goal one move on
    for t in range(2, slices + 1):
        times[reach & (times == 0)] = t
        reach = joint @ reach
    return times, joint, to_state


def _check_decision(grid, spec, snapshots, remaining, vanish, decision, chains):
    """A plan_step decision against the oracle: a move lowers the minimum
    time by one; a wait happens only where no path fits ``remaining``."""
    me = snapshots[spec.agent_id]
    blocked = (me.cell, STILL.index, None, False)
    dyn = dynamic_map(grid, snapshots, spec.agent_id,
                      include_arrived=not vanish, transparent=spec.chase)
    try:
        goal = goal_marginal(multiagent._goal_cells(spec, snapshots), dyn)
    except InvalidGoalError:
        assert decision == blocked
        return
    if goal[me.cell] > 0.0:
        assert decision == (me.cell, STILL.index, None, True)
        return
    times, joint, to_state = _pair_times(dyn, spec, goal, remaining, chains)
    pair = (me.cell[0] * grid.cols + me.cell[1]) * N_ACTIONS
    own = times[pair : pair + N_ACTIONS]
    if me.action is not None:
        own = own[[me.action]]
    if remaining < 2 or not own.any():
        assert decision == blocked
        return
    t_min = own[own > 0].min()
    cell, executed, heading, arrived = decision
    if spec.chase and decision == (me.cell, STILL.index, me.action, True):
        assert t_min == 2  # a capture: the committed move reached a target
        return
    assert me.action in (None, executed)
    assert to_state[pair + executed, cell[0] * grid.cols + cell[1]]
    if heading is None:
        assert (t_min, arrived) == (2, True) and goal[cell] > 0.0
    else:
        nxt = (cell[0] * grid.cols + cell[1]) * N_ACTIONS + heading
        assert joint[pair + executed, nxt] and not arrived
        assert times[nxt] == t_min - 1


@settings(max_examples=200, deadline=None)
@given(worlds())
def test_simulate_rounds_keep_their_invariants_and_follow_the_dense_chain(world):
    grid, specs, t_max, schedule, seed, vanish = world
    decisions = []
    plan_step = multiagent._AgentRunner.plan_step

    def recording(self, grid, snapshots, remaining, rng, arrived_vanish=False):
        before = dict(snapshots)
        decision = plan_step(self, grid, snapshots, remaining, rng, arrived_vanish)
        decisions.append((self.spec, before, remaining, decision))
        return decision

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(multiagent._AgentRunner, "plan_step", recording)
        result = simulate(specs, grid, t_max, schedule, seed, vanish)

    for state in result.states:
        assert all(grid.is_free(s.cell) for s in state.agents)
        present = [s.cell for s in state.agents if not (vanish and s.arrived)]
        assert len(set(present)) == len(present)
    for path in result.paths.values():
        validate_path(path, grid)
    assert result.timed_out == (not result.states[-1].all_arrived())
    assert not result.timed_out or result.t_final == t_max
    chains = {}
    for spec, snapshots, remaining, decision in decisions:
        _check_decision(grid, spec, snapshots, remaining, vanish, decision, chains)
