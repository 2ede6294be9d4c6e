from __future__ import annotations

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flowplan import (
    AgentSpec,
    GridMap,
    InvalidGoalError,
    NoFeasiblePathError,
    UnreachableError,
    Path,
    Scenario,
    STILL,
    goal_marginal,
    greedy_plan,
    path_likelihood,
    sample_path,
    scenario_flows,
    simulate,
    validate_path,
)
from flowplan import engine, planner
from flowplan.grid import ACTIONS, N_ACTIONS
from flowplan.oracle import bfs_distance, dense_chain, enumerate_paths
from flowplan.planner import _commit_next, build_setup, resolve_horizon

from conftest import feasible_instance, free_cells, random_map


def test_goal_marginal_three_equal_weights():
    grid = GridMap.empty(4, 4)
    m = goal_marginal([(0, 0), (1, 2), (3, 3)], grid)
    for cell in [(0, 0), (1, 2), (3, 3)]:
        assert m[cell] == pytest.approx(1.0 / 3.0)
    assert m.sum() == pytest.approx(1.0)


def test_goal_marginal_unbalanced_weights():
    grid = GridMap.empty(4, 4)
    m = goal_marginal([((0, 0), 0.2), ((3, 3), 0.8)], grid)
    assert m[0, 0] == pytest.approx(0.2)
    assert m[3, 3] == pytest.approx(0.8)


def test_goal_marginal_single_goal_is_a_delta():
    grid = GridMap.empty(3, 3)
    m = goal_marginal([(1, 2)], grid)
    assert m[1, 2] == 1.0 and m.sum() == 1.0


def test_goal_marginal_rejects_obstacle_goal():
    grid = GridMap.empty(3, 3).with_obstacles([(1, 1)])
    with pytest.raises(InvalidGoalError):
        goal_marginal([(1, 1)], grid)
    with pytest.raises(InvalidGoalError):
        goal_marginal([((0, 0), -1.0)], grid)


@pytest.mark.parametrize("weight", [math.nan, math.inf, -math.inf])
def test_non_finite_goal_weights_are_refused(weight):
    grid = GridMap.empty(3, 5)
    goals = [((0, 4), weight), ((2, 4), 1.0)]
    with pytest.raises(InvalidGoalError, match="goal weights must be finite"):
        Scenario(grid, (0, 0), goals)
    with pytest.raises(InvalidGoalError, match="goal weights must be finite"):
        goal_marginal(goals, grid)
    with pytest.raises(InvalidGoalError, match="goal weights must be finite"):
        AgentSpec(1, (0, 0), goals)


def test_goal_weights_that_underflow_against_the_total_are_refused():
    grid = GridMap.empty(3, 5)
    goals = [((0, 4), 1e308), ((2, 4), 1e-300)]
    match = r"goal weight of \(2, 4\) underflows to 0"
    with pytest.raises(InvalidGoalError, match=match):
        Scenario(grid, (0, 0), goals)
    with pytest.raises(InvalidGoalError, match=match):
        AgentSpec(1, (0, 0), goals)
    # a ratio that stays a positive subnormal is kept
    tiny = Scenario(grid, (0, 0), [((0, 4), 1e308), ((2, 4), 1e-5)])
    assert 0.0 < tiny.goals[1][1] < 1e-300


def test_goal_weights_whose_sum_overflows_are_scaled_first():
    grid = GridMap.empty(3, 5)
    huge = Scenario(grid, (0, 0), [((0, 4), 1e308), ((2, 4), 1e308)])
    assert huge.goals == (((0, 4), 0.5), ((2, 4), 0.5))
    equal = Scenario(grid, (0, 0), [(0, 4), (2, 4)])
    assert greedy_plan(huge).steps == greedy_plan(equal).steps
    m = goal_marginal([((0, 4), 1.5e308), ((2, 4), 0.5e308)], grid)
    assert (m[0, 4], m[2, 4]) == (0.75, 0.25)


def test_greedy_walks_the_diagonal_at_minimum_time():
    scenario = Scenario(GridMap.empty(5, 5), (0, 0), [(4, 4)])
    assert resolve_horizon(scenario) == 5
    path = greedy_plan(scenario)
    assert path.reached_goal
    assert path.cells() == [(0, 0), (1, 1), (2, 2), (3, 3), (4, 4)]
    validate_path(path, scenario.grid)


def test_greedy_aborts_below_minimum_time():
    scenario = Scenario(GridMap.empty(5, 5), (0, 0), [(4, 4)], horizon=4)
    with pytest.raises(NoFeasiblePathError):
        greedy_plan(scenario)


CORRIDOR_3X700 = Scenario(GridMap.empty(3, 700), (1, 0), [(1, 699)])


@pytest.mark.parametrize("rows, slack", [(3, 0), (3, 700), (1, 5)])
def test_sample_path_succeeds_on_a_feasible_long_corridor(rows, slack):
    # a sum-product chain normalized over the whole grid underflows at its
    # frontier long before it reaches the start; normalized over the tube
    # it does not: at the minimum time, five slices past it and twice it
    scenario = Scenario(GridMap.empty(rows, 700), (rows // 2, 0), [(rows // 2, 699)])
    assert resolve_horizon(scenario) == 700
    path = sample_path(replace(scenario, horizon=700 + slack))
    assert path.reached_goal
    assert path.t_used <= 700 + slack  # it stops on the goal
    validate_path(path, scenario.grid)


def test_commit_next_redoes_a_vanished_draw_in_log_space():
    # a sum-product chain that vanished on the neighbourhood although the
    # goal is reachable in time: the rest of the chain is redone in log
    # space from the current cell, and the draw commits from it
    scenario = Scenario(GridMap.empty(5, 5), (0, 0), [(4, 4)])
    setup = build_setup(scenario)
    kernel, p, goal = setup.kernel, setup.p_action, setup.goal
    chain = engine._tube(kernel, p, goal, 5, (0, 0), engine._SUM)
    rng = np.random.default_rng(0)
    args = (5, 2, (0, 0), None, "abort", rng)
    assert _commit_next(setup, chain, *args, draw=True)[1] == (1, 1)
    box = chain[1].box
    chain[1] = engine._Crop(box, np.zeros_like(chain[1].values), 0.0)
    action, cell, next_action = _commit_next(setup, chain, *args, draw=True)
    assert cell == (1, 1)
    assert next_action is not None and action is not None
    assert len(chain) == 4 and all(crop.zero == -math.inf for crop in chain)
    # the later slices read the log chain without another redo
    assert _commit_next(setup, chain, 5, 3, (1, 1), next_action, "abort", rng, True)[1] == (2, 2)


def test_commit_next_raises_plain_infeasibility_when_the_log_redo_is_dead():
    # one slice below the minimum time the log chain is dead on the
    # neighbourhood too, so no path exists and nothing names underflow
    scenario = Scenario(GridMap.empty(5, 5), (0, 0), [(4, 4)])
    setup = build_setup(scenario)
    chain = engine._tube(setup.kernel, setup.p_action, setup.goal, 4, (0, 0), engine._SUM)
    rng = np.random.default_rng(0)
    with pytest.raises(NoFeasiblePathError, match=r"slice 2 \(horizon 4\)$") as info:
        _commit_next(setup, chain, 4, 2, (0, 0), None, "abort", rng, draw=True)
    assert type(info.value) is NoFeasiblePathError
    assert all(crop.zero == -math.inf for crop in chain)


def _walled_130x6(horizon):
    # the heavy goal sits behind a wall, out of reach in time, but inside
    # the tube's box: normalized over the crop, its mass sinks the light
    # goal's below the smallest double near the start
    mask = np.zeros((130, 6), dtype=np.uint8)
    mask[:128, 1] = 1
    grid = GridMap.from_mask(mask)
    goals = [((5, 2), 1.0), ((85, 0), 1e-300)]
    return Scenario(grid, (5, 0), goals, horizon=horizon)


@pytest.mark.parametrize("horizon", [None, 100])
def test_sampling_recovers_where_a_light_goal_underflows(horizon):
    scenario = _walled_130x6(horizon)
    assert resolve_horizon(scenario) == (81 if horizon is None else horizon)
    for plan in (sample_path, greedy_plan):
        path = plan(scenario)
        validate_path(path, scenario.grid)
        assert path.reached_goal and path.steps[-1][1] == (85, 0)


def test_sampling_recovers_where_the_final_product_underflows():
    # move times a goal weight of 5e-324 rounds to 0 at the final slice
    grid = GridMap.empty(1, 4)
    goals = [((0, 0), 1.0), ((0, 3), 5e-324)]
    scenario = Scenario(grid, (0, 2), goals, stiffness=1.0)
    for plan in (sample_path, greedy_plan):
        path = plan(scenario)
        validate_path(path, grid)
        assert path.reached_goal and path.cells() == [(0, 2), (0, 3)]


_SIDES = st.integers(1, 8), st.integers(1, 12)
_RATIOS = st.one_of(
    st.sampled_from([1.0, 1e-300, 5e-324]),
    st.floats(-323.0, 0.0).map(lambda e: max(10.0**e, 5e-324)),
)


@settings(max_examples=120, deadline=None)
@given(
    st.one_of(st.tuples(st.just(1), _SIDES[1]), st.tuples(*_SIDES)),
    st.integers(0, 2**32 - 1),
    _RATIOS,
    st.floats(0.0, 1.0, exclude_max=True),
    st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
    st.one_of(st.none(), st.floats(0.0, 1.0)),
)
def test_feasible_inputs_always_give_a_path(shape, seed, ratio, stiffness, sharpness, slack):
    # judged by BFS: whenever a goal is reachable within the horizon, both
    # decoders return a valid path that ends on a goal, whatever the goal
    # weights, the motion model or the slack
    rng = np.random.default_rng(seed)
    grid = random_map(rng, *shape, float(rng.choice([0.0, 0.2, 0.4])))
    free = free_cells(grid)
    if len(free) < 2:
        return
    start, a, b = (free[k] for k in rng.integers(len(free), size=3))
    distance = bfs_distance(grid, start, [a, b])
    if distance is None:
        return
    t_min = distance + 1
    horizon = None if slack is None else t_min + round(slack * t_min)
    scenario = Scenario(
        grid, start, [(a, 1.0), (b, ratio)], horizon=horizon,
        sharpness=sharpness, stiffness=stiffness, seed=seed,
    )
    for plan in (sample_path, greedy_plan):
        path = plan(scenario)
        validate_path(path, grid)
        assert path.reached_goal and path.steps[-1][1] in (a, b)
        assert path.t_used <= (horizon or t_min)


def _oracle_feasible(scenario: Scenario, t_max: int) -> list[bool]:
    """Whether a path of exactly T slices can end on a goal, for T = 0 ..
    t_max: boolean powers of the dense joint chain from the start pairs.
    The support sets are a deterministic sequence, so from the first one
    met before they cycle, and the answers with them."""
    setup = build_setup(scenario)
    chain = dense_chain(setup.kernel, setup.p_action)
    joint, to_state = chain.joint > 0.0, chain.to_state > 0.0
    goal = setup.goal.reshape(-1) > 0.0
    start = scenario.start_cell
    pairs = np.zeros(chain.dim, bool)
    base = (start[0] * scenario.grid.cols + start[1]) * N_ACTIONS
    if scenario.start_action is None:
        pairs[base : base + N_ACTIONS] = True
    else:
        pairs[base + scenario.start_action.index] = True
    feasible = [False, bool(goal[base // N_ACTIONS])]
    seen = {}  # each support set met so far, by the T it was tested at
    for t in range(2, t_max + 1):
        if (key := pairs.tobytes()) in seen:
            period = t - seen[key]
            for later in range(t, t_max + 1):
                feasible.append(feasible[later - period])
            break
        seen[key] = t
        feasible.append(bool((pairs @ to_state & goal).any()))
        pairs = pairs @ joint
    return feasible


def _assert_decoders_follow_the_dense_chain(scenario: Scenario, horizon_at) -> None:
    """``resolve_horizon`` gives the dense chain's minimum T_min, and both
    decoders at the fixed horizon ``horizon_at(T_min)`` (T_min None where no
    path fits the search cap) return a path onto a goal exactly where the
    chain has one, else ``NoFeasiblePathError``."""
    cap = scenario.search_cap
    feasible = _oracle_feasible(scenario, cap + 4)
    t_min = feasible.index(True) if True in feasible[: cap + 1] else None
    if t_min is None:
        with pytest.raises(UnreachableError):
            resolve_horizon(scenario)
    else:
        assert resolve_horizon(scenario) == t_min
    horizon = horizon_at(t_min)
    if horizon >= len(feasible):
        feasible = _oracle_feasible(scenario, horizon)
    fixed = replace(scenario, horizon=horizon)
    for plan in (sample_path, greedy_plan):
        if not feasible[horizon]:
            with pytest.raises(NoFeasiblePathError):
                plan(fixed)
            continue
        path = plan(fixed)
        validate_path(path, scenario.grid)
        assert path.steps[0][1] == scenario.start_cell
        if scenario.start_action is not None and len(path.steps) > 1:
            assert path.steps[0][2] == scenario.start_action.index
        assert path.reached_goal and path.steps[-1][1] in scenario.goal_cells
        assert path_likelihood(path, fixed) > -math.inf


@settings(max_examples=150, deadline=None)
@given(
    st.sampled_from([(1, 1), (1, 6), (5, 1)])
    | st.tuples(st.integers(1, 5), st.integers(1, 6)),
    st.integers(0, 2**32 - 1),
    st.sampled_from([0.0, 0.5, 1.0]),
    st.none() | st.sampled_from(ACTIONS),
    st.integers(-3, 4),
)
def test_decoders_follow_the_dense_chain_at_any_stiffness_and_pinned_action(
    shape, seed, stiffness, start_action, slack
):
    # judged by the dense chain, not by BFS: at stiffness 1 a pinned heading
    # can leave a goal that BFS reaches out of reach; horizons run from
    # below the minimum to four slices above it
    rng = np.random.default_rng(seed)
    grid = random_map(rng, *shape, float(rng.choice([0.0, 0.2, 0.4])))
    free = free_cells(grid)
    if not free:
        return
    start = free[rng.integers(len(free))]
    # goals off the start, except on a map with one free cell
    others = [c for c in free if c != start] or free
    a, b = (others[k] for k in rng.integers(len(others), size=2))
    scenario = Scenario(
        grid, start, [(a, 1.0), (b, float(rng.choice([1.0, 0.1])))],
        start_action=start_action, stiffness=stiffness, seed=seed,
    )
    _assert_decoders_follow_the_dense_chain(
        scenario, lambda t_min: max((t_min or 1) + slack, 1)
    )


@st.composite
def _long_maps(draw):
    """A 1 x N corridor of up to 120 cells, or a map of up to 8 x 12 split
    by a wall with one door, and a start and a goal at far ends of it."""
    if draw(st.booleans()):
        cols = draw(st.integers(2, 120))
        ends = [(0, draw(st.integers(0, cols // 4))), (0, cols - 1)]
        return GridMap.empty(1, cols), *draw(st.permutations(ends))
    rows, cols = draw(st.integers(2, 8)), draw(st.integers(3, 12))
    wall, door = draw(st.integers(1, cols - 2)), draw(st.integers(0, rows - 1))
    grid = GridMap.empty(rows, cols).with_obstacles(
        [(r, wall) for r in range(rows) if r != door]
    )
    start = (draw(st.integers(0, rows - 1)), draw(st.integers(0, wall - 1)))
    goal = (draw(st.integers(0, rows - 1)), draw(st.integers(wall + 1, cols - 1)))
    return grid, start, goal


@settings(max_examples=80, deadline=None)
@given(
    _long_maps(),
    st.sampled_from([0.0, 0.5, 1.0]),
    st.none() | st.sampled_from(ACTIONS),
    st.floats(0.0, 3.0),
    st.integers(0, 2**32 - 1),
)
def test_decoders_follow_the_dense_chain_at_long_horizons(
    case, stiffness, start_action, stretch, seed
):
    # horizons from the minimum to four times it, where a long horizon
    # must not turn a feasible plan into a vanished posterior
    grid, start, goal = case
    scenario = Scenario(
        grid, start, [goal], start_action=start_action, stiffness=stiffness, seed=seed
    )
    _assert_decoders_follow_the_dense_chain(
        scenario, lambda t_min: round((t_min or 2) * (1 + stretch))
    )


def test_sample_path_below_minimum_time_is_plainly_infeasible():
    with pytest.raises(NoFeasiblePathError) as info:
        sample_path(replace(CORRIDOR_3X700, horizon=699))
    assert type(info.value) is NoFeasiblePathError


def test_greedy_wait_policy_stalls_instead_of_aborting():
    scenario = Scenario(
        GridMap.empty(5, 5), (0, 0), [(4, 4)], horizon=3, policy="wait"
    )
    path = greedy_plan(scenario)
    assert not path.reached_goal
    assert path.cells() == [(0, 0)] * 3
    assert all(a == STILL.index for _, _, a in path.steps[:-1])


def test_greedy_sample_policy_moves_somewhere_valid():
    scenario = Scenario(
        GridMap.empty(5, 5), (0, 0), [(4, 4)], horizon=3, policy="sample", seed=4
    )
    path = greedy_plan(scenario)
    validate_path(path, scenario.grid)
    assert path.t_used == 3


def test_greedy_matches_bfs_on_random_maps(rng):
    for _ in range(25):
        grid, start, goal, d = feasible_instance(rng, 15, 15)
        path = greedy_plan(Scenario(grid, start, [goal]))
        validate_path(path, grid)
        assert path.reached_goal
        assert path.transitions == d


def test_greedy_is_deterministic():
    grid = GridMap.empty(6, 6).with_obstacles([(2, 2), (3, 3)])
    scenario = Scenario(grid, (0, 0), [(5, 5)])
    assert greedy_plan(scenario).steps == greedy_plan(scenario).steps


def test_greedy_start_on_goal_returns_single_slice():
    scenario = Scenario(GridMap.empty(3, 3), (1, 1), [(1, 1)])
    path = greedy_plan(scenario)
    assert path.steps == ((1, (1, 1), None),)
    assert path.reached_goal


def test_goal_stop_off_runs_the_full_horizon():
    # a start off the goals, and a start on one of two goals, which stops at
    # once unless goal_stop is off
    off_goal = Scenario(GridMap.empty(5, 5), (0, 0), [(4, 4)], horizon=8)
    on_goal = Scenario(GridMap.empty(1, 4), (0, 1), [(0, 1), (0, 3)], horizon=5)
    for base in (off_goal, on_goal):
        for plan in (greedy_plan, sample_path):
            stopped = plan(base)
            assert stopped.reached_goal and stopped.t_used <= base.horizon
            wandering = plan(replace(base, goal_stop=False))
            assert wandering.t_used == base.horizon
            validate_path(wandering, base.grid)
            assert wandering.reached_goal  # final slice posterior is goal-weighted
    assert greedy_plan(on_goal).t_used == sample_path(on_goal).t_used == 1


def test_greedy_with_pinned_start_action():
    grid = GridMap.empty(5, 5)
    scenario = Scenario(grid, (0, 0), [(4, 4)], start_action=STILL)
    # a pinned still start needs one extra slice: the first move is a no-op
    assert resolve_horizon(scenario) == 6
    path = greedy_plan(scenario)
    assert path.reached_goal
    assert path.steps[0] == (1, (0, 0), STILL.index)
    assert path.cells()[:2] == [(0, 0), (0, 0)]
    assert path.transitions == 5


def test_sampling_is_deterministic_per_seed():
    grid = GridMap.empty(6, 6)
    scenario = Scenario(grid, (0, 0), [(5, 5)], horizon=9, seed=123)
    assert sample_path(scenario).steps == sample_path(scenario).steps


def test_sampling_at_minimum_time_is_always_optimal(rng):
    grid, start, goal, d = feasible_instance(rng, 8, 8, min_distance=3)
    for seed in range(10):
        path = sample_path(Scenario(grid, start, [goal], seed=seed))
        assert path.reached_goal
        assert path.transitions == d
        validate_path(path, grid)


def test_sampling_with_slack_finds_multiple_routes():
    grid = GridMap.empty(7, 7)
    base = Scenario(grid, (3, 0), [(3, 6)])
    t_min = resolve_horizon(base)
    routes = {
        tuple(sample_path(replace(base, horizon=t_min + 6, seed=s)).cells())
        for s in range(12)
    }
    assert len(routes) >= 2


def test_sampling_never_selects_zero_posterior_pairs(rng):
    grid, start, goal, d = feasible_instance(rng, 6, 6, min_distance=2)
    for seed in range(5):
        path = sample_path(Scenario(grid, start, [goal], horizon=d + 3, seed=seed))
        assert path_likelihood(path, Scenario(grid, start, [goal])) > -math.inf


def _whole_grid_sample(scenario: Scenario) -> tuple:
    """The steps of ``sample_path`` with a pinned start heading, drawn on
    the whole grid: the posterior of the restarted delta and the backward
    flow, then one draw over all N*M*9 pairs (all N*M cells at the final
    slice)."""
    setup = build_setup(scenario)
    kernel, p, goal = setup.kernel, setup.p_action, setup.goal
    horizon = resolve_horizon(scenario, setup)
    backward = engine.backward_flow(kernel, p, goal, horizon)
    rng = np.random.default_rng(scenario.seed)
    cell, action = scenario.start_cell, scenario.start_action.index
    steps = []
    for t in range(2, horizon + 1):
        f = engine.initial_forward(kernel, cell, np.eye(N_ACTIONS)[action])
        if t < horizon:
            score = engine.posterior(engine.forward_step(f, kernel, p), backward[t - 1])
            score = score.values
        else:
            score = engine.forward_final(f, kernel) * goal
        flat = score.reshape(-1)
        pick = np.unravel_index(rng.choice(flat.size, p=flat / flat.sum()), score.shape)
        steps.append((t - 1, cell, action))
        cell = (int(pick[0]), int(pick[1]))
        action = int(pick[2]) if t < horizon else None
        if cell in scenario.goal_cells:
            break
    return (*steps, (t, cell, action))


def test_sample_path_draws_as_the_whole_grid_posterior(rng):
    for _ in range(30):
        rows, cols = (int(k) for k in rng.integers(1, 9, size=2))
        if rows * cols < 2:
            continue
        grid, start, goal, _ = feasible_instance(rng, rows, cols, density=0.25)
        # a second, weighted goal somewhere near the first
        other = (min(goal[0] + 1, rows - 1), goal[1])
        goals = [(goal, 1.0)]
        if grid.is_free(other) and other not in (goal, start):
            goals.append((other, float(rng.uniform(0.2, 5.0))))
        base = Scenario(
            grid, start, goals, start_action=ACTIONS[int(rng.integers(N_ACTIONS))],
            sharpness=float(rng.uniform(0.3, 0.95)),
            stiffness=float(rng.choice([0.0, 0.5, 1.0])),
        )
        try:
            t_min = resolve_horizon(base)
        except UnreachableError:  # e.g. a frozen heading that points away
            continue
        for slack in (0, 1, 4):
            for seed in range(3):
                scenario = replace(base, horizon=t_min + slack, seed=seed)
                assert sample_path(scenario).steps == _whole_grid_sample(scenario)


def test_sample_path_draws_on_the_neighbourhood_only(monkeypatch):
    grid = GridMap.empty(60, 60)
    scenario = Scenario(grid, (30, 5), [(35, 55)], horizon=56, seed=3)
    want = sample_path(scenario).steps
    sizes = []

    class Recording:
        def __init__(self, rng):
            self.rng = rng

        def choice(self, a, p=None):
            sizes.append(len(p))
            return self.rng.choice(a, p=p)

    def posterior(*args):
        raise AssertionError("sample_path builds a whole-grid posterior")

    default_rng = np.random.default_rng
    monkeypatch.setattr(np.random, "default_rng", lambda s: Recording(default_rng(s)))
    monkeypatch.setattr(engine, "posterior", posterior)
    assert sample_path(scenario).steps == want
    # 3 x 3 x 9 pairs per slice, the free first heading's 9 after the first,
    # and 3 x 3 cells at the final slice
    assert sizes == [81, 9] + [81] * (len(want) - 3) + [9]


_WALLED = GridMap.from_mask(np.array([
    [0, 0, 1, 0, 0, 0],
    [0, 1, 0, 0, 1, 0],
    [0, 0, 0, 1, 0, 0],
    [1, 0, 0, 0, 0, 1],
    [0, 0, 1, 0, 0, 0],
], dtype=np.uint8))


@pytest.mark.parametrize(
    "grid", [_WALLED, GridMap.empty(1, 6), GridMap.empty(6, 1)], ids=["walled", "1xN", "Nx1"]
)
def test_forward_move_is_the_whole_grid_step_on_its_box(grid):
    # the move runs on the kernel cropped to the cell's 3 x 3 box; the
    # whole-grid restart has all of its mass there and equals it up to the
    # rounding of the normalizing total
    setup = build_setup(Scenario(grid, free_cells(grid)[0], [free_cells(grid)[-1]],
                                 sharpness=0.7, stiffness=0.4))
    kernel, p = setup.kernel, setup.p_action
    for cell in free_cells(grid):
        box = engine._around(cell, 1, kernel)
        for action in (None, *range(N_ACTIONS)):
            pi = None if action is None else np.eye(N_ACTIONS)[action]
            f = engine.initial_forward(kernel, cell, pi)
            for final in (False, True):
                whole = (engine.forward_final(f, kernel) if final
                         else engine.forward_step(f, kernel, p).values)
                got = planner._forward_move(setup, cell, action, final, box)
                want = whole[box]
                assert got.shape == want.shape
                np.testing.assert_array_equal(got > 0.0, want > 0.0)
                np.testing.assert_allclose(got, want, rtol=1e-12, atol=0.0)
                assert want.sum() == pytest.approx(1.0, rel=1e-12)


def test_decoders_restart_the_forward_message_on_a_3x3_kernel(monkeypatch):
    # a structural guard: no decoder step, single-agent or multi-agent,
    # restarts the forward message on the whole grid
    rng = np.random.default_rng(11)
    mask = (rng.random((30, 30)) < 0.15).astype(np.uint8)
    mask[[1, 1, 28, 28, 3, 26], [1, 28, 28, 1, 15, 15]] = 0
    grid = GridMap.from_mask(mask)
    shapes = []
    initial_forward = engine.initial_forward

    def recording(kernel, *args, **kwargs):
        shapes.append((kernel.grid.rows, kernel.grid.cols))
        return initial_forward(kernel, *args, **kwargs)

    monkeypatch.setattr(engine, "initial_forward", recording)
    scenario = Scenario(grid, (1, 1), [(28, 28)], seed=5)
    agents = [AgentSpec(1, (1, 1), [(28, 28)]), AgentSpec(2, (28, 1), [(1, 28)]),
              AgentSpec(3, (3, 15), [(26, 15)])]
    calls = []
    assert greedy_plan(scenario).reached_goal
    calls.append(len(shapes))
    assert sample_path(scenario).reached_goal
    calls.append(len(shapes))
    assert not simulate(agents, grid, t_max=120).timed_out
    calls.append(len(shapes))
    assert 0 < calls[0] < calls[1] < calls[2]  # each run restarted the message
    assert max(rows for rows, _ in shapes) <= 3 and max(cols for _, cols in shapes) <= 3


def test_path_likelihood_still_chain_closed_form():
    grid = GridMap.empty(4, 4)
    scenario = Scenario(grid, (2, 2), [(0, 0)], start_action=STILL, horizon=5)
    steps = tuple((t, (2, 2), STILL.index) for t in range(1, 5)) + ((5, (2, 2), None),)
    path = Path(steps, False)
    expect = 3 * math.log(1.0 / 9.0)  # three still->still action switches
    assert path_likelihood(path, scenario) == pytest.approx(expect)


def test_path_likelihood_rejects_obstacle_hops():
    grid = GridMap.empty(3, 3).with_obstacles([(1, 1)])
    scenario = Scenario(grid, (0, 0), [(2, 2)])
    bad = Path(((1, (0, 0), 4), (2, (1, 1), None)), False)
    assert path_likelihood(bad, scenario) == -math.inf


@pytest.mark.parametrize("start_action", [None, ACTIONS[0], ACTIONS[3]])
def test_a_path_that_starts_on_its_goal_has_likelihood_one(start_action):
    # the one slice is the final one, a cell without an action, so a pinned
    # start action has nothing to disagree with
    scenario = Scenario(GridMap.empty(1, 3), (0, 1), [(0, 1), (0, 2)],
                        start_action=start_action)
    for plan in (greedy_plan, sample_path):
        path = plan(scenario)
        assert path.steps == ((1, (0, 1), None),) and path.reached_goal
        assert path_likelihood(path, scenario) == 0.0


def test_path_likelihood_rejects_wrong_start():
    grid = GridMap.empty(3, 3)
    scenario = Scenario(grid, (0, 0), [(2, 2)])
    other = Path(((1, (0, 1), None),), False)
    assert path_likelihood(other, scenario) == -math.inf


def test_greedy_attains_enumeration_maximum_on_empty_grids():
    # every feasible start/goal pair on the obstacle-free 3x3 grid
    grid = GridMap.empty(3, 3)
    cells = [(i, j) for i in range(3) for j in range(3)]
    for start in cells:
        for goal in cells:
            if start == goal:
                continue
            scenario = Scenario(grid, start, [goal])
            t_min = resolve_horizon(scenario)
            trajectories = enumerate_paths(
                grid, start, goal_marginal([goal], grid), t_min
            )
            best = max(w for _, w in trajectories)
            path = greedy_plan(replace(scenario, horizon=t_min))
            got = math.exp(path_likelihood(path, scenario))
            assert got == pytest.approx(best, rel=1e-9)


def test_greedy_from_a_start_on_its_goal_attains_the_enumeration_maximum():
    # with goal_stop off a start on a goal runs the whole horizon, and the
    # path is a best trajectory, its final goal weight included
    rng = np.random.default_rng(16)
    for _ in range(30):
        rows, cols = (int(v) for v in rng.integers(1, 4, size=2))
        grid = random_map(rng, rows, cols, 0.2)
        free = free_cells(grid)
        if len(free) < 2:
            continue
        start, other = (free[k] for k in rng.choice(len(free), 2, replace=False))
        goals = [start, other] if rng.random() < 0.5 else [start]
        stiffness = float(rng.choice([0.0, 0.5, 1.0]))
        horizon = int(rng.integers(2, 5 if rows * cols <= 4 else 4))
        scenario = Scenario(grid, start, goals, horizon=horizon,
                            stiffness=stiffness, goal_stop=False)
        goal = goal_marginal(goals, grid)
        trajectories = enumerate_paths(grid, start, goal, horizon, stiffness=stiffness)
        path = greedy_plan(scenario)
        assert path.t_used == horizon and path.reached_goal
        got = math.exp(path_likelihood(path, scenario)) * goal[path.steps[-1][1]]
        assert got == pytest.approx(max(w for _, w in trajectories), rel=1e-9)


def test_greedy_marginal_argmax_can_miss_the_single_best_trajectory():
    # Censoring boosts the lone route through (2, 1) (its blocked stencil
    # renormalizes onto the goal), but the slice-2 joint posterior, a
    # marginal, peaks on (1, 1) heading down-left, off that route.  The
    # greedy planner decodes with max-product messages, so it must follow
    # the single best trajectory instead of the marginal argmax.
    grid = GridMap.empty(3, 3).with_obstacles([(0, 1)])
    scenario = Scenario(grid, (1, 2), [(2, 0)])
    t_min = resolve_horizon(scenario)
    assert t_min == 3
    trajectories = enumerate_paths(
        grid, (1, 2), goal_marginal([(2, 0)], grid), t_min
    )
    best_traj, best = max(trajectories, key=lambda tw: tw[1])
    best_route = [step[0] for step in best_traj[:-1]] + [best_traj[-1]]
    assert best_route == [(1, 2), (2, 1), (2, 0)]
    fixed = replace(scenario, horizon=t_min)
    marginal = scenario_flows(fixed).posterior[1].values
    assert np.unravel_index(np.argmax(marginal), marginal.shape) == (1, 1, 6)

    path = greedy_plan(fixed)
    got = math.exp(path_likelihood(path, scenario))
    assert path.reached_goal and path.transitions == 2
    assert path.cells() == best_route
    assert math.isclose(got, best, rel_tol=1e-9)


def test_greedy_attains_enumeration_maximum_at_slack_horizons():
    # the maximum-likelihood promise holds beyond criterion 2's own family:
    # random maps, horizons above the minimum, other motion parameters
    rng = np.random.default_rng(7)
    misses, cases = [], 0
    for sharpness in (0.5, 0.8, 0.95):
        for stiffness in (0.0, 0.5, 0.9):
            for _ in range(12):
                # horizons up to 4 slices (the enumeration limit) leave
                # slack only for BFS distances up to 2
                grid, start, goal, d = feasible_instance(rng, 3, 3)
                while d > 2:
                    grid, start, goal, d = feasible_instance(rng, 3, 3)
                for horizon in range(d + 2, 5):
                    scenario = Scenario(
                        grid, start, [goal], horizon=horizon,
                        sharpness=sharpness, stiffness=stiffness, goal_stop=False,
                    )
                    trajectories = enumerate_paths(
                        grid, start, goal_marginal([goal], grid), horizon,
                        sharpness, stiffness,
                    )
                    best = max(w for _, w in trajectories)
                    path = greedy_plan(scenario)
                    got = math.exp(path_likelihood(path, scenario))
                    cases += 1
                    if not math.isclose(got, best, rel_tol=1e-9):
                        misses.append((grid.mask, start, goal, horizon, got, best))
    assert cases > 150
    assert not misses, f"{len(misses)}/{cases} misses, e.g. {misses[0]}"


def test_greedy_survives_a_long_horizon():
    # the sum-product backward message underflows at its frontier on this
    # corridor; the log-domain max-product chain cannot
    grid = GridMap.empty(3, 700)
    path = greedy_plan(Scenario(grid, (1, 0), [(1, 699)]))
    assert path.reached_goal
    assert path.t_used == 700
    validate_path(path, grid)


def test_multi_goal_reaches_the_nearest(rng):
    done = 0
    while done < 8:
        grid, start, g1, d1 = feasible_instance(rng, 10, 10)
        free = np.argwhere(grid.free)
        g2 = tuple(int(v) for v in free[rng.integers(len(free))])
        g3 = tuple(int(v) for v in free[rng.integers(len(free))])
        if len({start, g1, g2, g3}) != 4:
            continue
        d2 = bfs_distance(grid, start, [g2])
        d3 = bfs_distance(grid, start, [g3])
        if d2 is None or d3 is None or 0 in (d2, d3):
            continue
        path = greedy_plan(Scenario(grid, start, [g1, g2, g3]))
        assert path.reached_goal
        reached = path.cells()[-1]
        assert bfs_distance(grid, start, [reached]) == min(d1, d2, d3)
        done += 1


def test_single_goal_multigoal_reduction_is_path_identical(rng):
    grid, start, goal, _ = feasible_instance(rng, 9, 9)
    single = greedy_plan(Scenario(grid, start, [goal]))
    weighted = greedy_plan(Scenario(grid, start, [((goal), 1.0)]))
    assert single.steps == weighted.steps


def test_scenario_validation():
    grid = GridMap.empty(3, 3).with_obstacles([(0, 1)])
    with pytest.raises(ValueError):
        Scenario(grid, (0, 1), [(2, 2)])
    with pytest.raises(InvalidGoalError):
        Scenario(grid, (0, 0), [(0, 1)])
    with pytest.raises(ValueError):
        Scenario(grid, (0, 0), [(2, 2)], policy="panic")
    for sharpness in (1.0, 0.0, 1.5):
        with pytest.raises(ValueError, match="keeps no outward move"):
            Scenario(grid, (0, 0), [(2, 2)], sharpness=sharpness)


@pytest.mark.parametrize("field, value, want", [
    ("seed", -1, "seed must be a non-negative integer, got -1"),
    ("stiffness", 1.5, "stiffness must be in [0, 1], got 1.5"),
    ("stiffness", math.nan, "stiffness must be in [0, 1], got nan"),
    ("stiffness", -0.1, "stiffness must be in [0, 1], got -0.1"),
], ids=["seed-negative", "stiffness-1.5", "stiffness-nan", "stiffness-negative"])
def test_scenario_refuses_values_that_would_fail_later(field, value, want):
    grid = GridMap.empty(3, 3)
    with pytest.raises(ValueError) as info:
        Scenario(grid, (0, 0), [(2, 2)], **{field: value})
    assert str(info.value) == want


def test_validate_path_catches_violations():
    grid = GridMap.empty(3, 3)
    with pytest.raises(ValueError):
        validate_path(Path(((1, (0, 0), 0), (2, (2, 2), None)), False), grid)
    with pytest.raises(ValueError):
        validate_path(Path(((1, (0, 0), 0), (3, (0, 1), None)), False), grid)
    with pytest.raises(ValueError):
        validate_path(Path(((1, (0, 0), None), (2, (0, 1), None)), False), grid)


def test_stiff_agents_still_plan_optimal_paths():
    # full stiffness freezes the heading, so the minimum time can exceed
    # BFS + 1; moderate stiffness must not change optimality
    grid = GridMap.empty(6, 6)
    moderate = Scenario(grid, (0, 0), [(5, 5)], stiffness=0.5)
    path = greedy_plan(moderate)
    assert path.reached_goal and path.transitions == 5
    frozen = Scenario(grid, (0, 0), [(5, 5)], stiffness=1.0)
    frozen_path = greedy_plan(frozen)
    assert frozen_path.reached_goal
    validate_path(frozen_path, grid)


def test_auto_horizon_respects_the_search_bound():
    grid = GridMap.empty(8, 8)
    tight = Scenario(grid, (0, 0), [(7, 7)], t_max=4)
    with pytest.raises(UnreachableError):
        greedy_plan(tight)


def test_sample_policy_covers_the_final_slice():
    # below minimum time every posterior is dead, the final one included
    grid = GridMap.empty(6, 6)
    scenario = Scenario(grid, (0, 0), [(5, 5)], horizon=3, policy="sample", seed=11)
    path = sample_path(scenario)
    validate_path(path, grid)
    assert path.t_used == 3
    assert not path.reached_goal
