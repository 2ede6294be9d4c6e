from __future__ import annotations

import re
import sys
import threading
from itertools import islice

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from flowplan import (
    DeadFlowError,
    GridMap,
    InvalidGoalError,
    KernelDegenerateError,
    MessageTensor,
    Scenario,
    TransitionKernel,
    UnreachableError,
    action_matrix,
    backward_step,
    backward_terminal,
    build_kernel,
    default_masks,
    forward_final,
    forward_step,
    goal_marginal,
    greedy_plan,
    initial_forward,
    min_time,
    posterior,
    run_flows,
)
from flowplan import engine, scenarios
from flowplan.engine import (
    BACKWARD,
    FORWARD,
    _grow,
    _LSE,
    _MAX,
    _SUM,
    _log,
    _shift,
    backward_flow,
)
from flowplan.grid import ACTION_BY_NAME, ACTIONS, N_ACTIONS
from flowplan.oracle import bfs_distance, dense_chain, dense_messages
from flowplan.planner import build_setup, scenario_flows
from flowplan.scenario_io import parse_scenario

from conftest import feasible_instance, free_cells, random_map


def joint_delta(grid: GridMap, cell, action_index: int) -> MessageTensor:
    values = np.zeros((grid.rows, grid.cols, N_ACTIONS))
    values[cell[0], cell[1], action_index] = 1.0
    return MessageTensor(values, FORWARD)


def log_flow(kernel, p, goal, horizon, semiring=_MAX) -> list[np.ndarray]:
    """The log backward chain in ``semiring`` for t = 1 .. horizon-1, latest
    last, read whole-grid from the unclipped goal sweep."""
    goal = engine._checked_goal(goal, kernel)
    sweep = islice(engine._goal_sweep(kernel, p, goal, semiring), horizon - 1)
    return [crop[_grow(None, kernel)] for crop in sweep][::-1]


def max_chain(kernel, p, start, goal, t_max, pinned=None) -> list[np.ndarray]:
    """``engine._max_chain`` read whole-grid, the start's slice first."""
    crops = engine._max_chain(kernel, p, start, goal, t_max, pinned)
    return [crop[_grow(None, kernel)] for crop in crops][::-1]


@pytest.fixture
def empty5():
    grid = GridMap.empty(5, 5)
    return grid, build_kernel(grid), action_matrix(0.0)


def test_forward_step_still_delta_stays_put(empty5):
    grid, kernel, p = empty5
    out = forward_step(joint_delta(grid, (2, 2), 0), kernel, p)
    marginal = out.state_marginal()
    assert marginal[2, 2] == pytest.approx(1.0)
    assert np.allclose(out.values[2, 2], p[0])


def test_forward_step_is_normalized(rng):
    for _ in range(5):
        grid = random_map(rng, 4, 4, 0.2)
        if grid.free.sum() < 2:
            continue
        kernel = build_kernel(grid)
        p = action_matrix(0.0)
        values = rng.random((4, 4, N_ACTIONS)) * grid.free[:, :, None]
        values /= values.sum()
        out = forward_step(MessageTensor(values, FORWARD), kernel, p)
        assert out.values.sum() == pytest.approx(1.0, abs=1e-9)


def test_forward_step_up_delta_matches_mask(empty5):
    grid, kernel, p = empty5
    out = forward_step(joint_delta(grid, (2, 2), ACTION_BY_NAME["up"].index), kernel, p)
    marginal = out.state_marginal()
    assert marginal[1, 2] == pytest.approx(0.8)
    assert marginal[1, 1] == pytest.approx(0.095)
    assert marginal[1, 3] == pytest.approx(0.095)
    assert marginal[2, 2] == pytest.approx(0.01)
    for cell in [(1, 2), (1, 1), (1, 3), (2, 2)]:
        dist = out.values[cell] / out.values[cell].sum()
        assert np.allclose(dist, 1.0 / 9.0)


def test_forward_step_rejects_dead_input(empty5):
    grid, kernel, p = empty5
    dead = MessageTensor(np.zeros((5, 5, N_ACTIONS)), FORWARD)
    with pytest.raises(DeadFlowError):
        forward_step(dead, kernel, p)


def test_run_flows_reports_vanished_mass_as_the_step_does(empty5):
    # with the rows of p_action summing to 1 the scatter conserves mass, so
    # only a matrix that drops it lets the forward mass vanish mid-flow
    grid, kernel, _ = empty5
    goal = goal_marginal([(4, 4)], grid)
    with pytest.raises(DeadFlowError, match=r"^forward mass vanished \(support"):
        run_flows(kernel, np.zeros((N_ACTIONS, N_ACTIONS)), (0, 0), goal, 5)


def test_messages_copy_a_writable_input_and_keep_a_frozen_one():
    values = np.zeros((2, 2, N_ACTIONS))
    message = MessageTensor(values, FORWARD)
    values[0, 0, 0] = 1.0  # the caller's array stays writable
    assert message.is_dead and not message.values.flags.writeable
    frozen = np.zeros((2, 2, N_ACTIONS))
    frozen.flags.writeable = False
    assert MessageTensor(frozen, FORWARD).values is frozen
    # the engine freezes the crops it builds and keeps them uncopied; values
    # places the crop on a new read-only whole-grid array at each read
    built = np.arange(2.0 * N_ACTIONS).reshape(1, 2, N_ACTIONS)
    box, grid = (slice(1, 2), slice(0, 2)), (slice(0, 2), slice(0, 2))
    message = engine._message(built, FORWARD, box, grid)
    assert message._crop.values is built and not built.flags.writeable
    values = message.values
    assert values.shape == (2, 2, N_ACTIONS) and not values.flags.writeable
    assert not _outside(values, message._crop.box).any()
    assert values[box].tobytes() == built.tobytes()
    assert message.values is not values


def test_a_read_only_view_of_a_writable_array_is_copied():
    base = np.zeros((2, 2, N_ACTIONS))
    view = base[:]
    view.flags.writeable = False
    message = MessageTensor(view, FORWARD)
    base[0, 0, 0] = 1.0  # a write through the base leaves the message alone
    assert message.is_dead and message.values is not view
    # so is a frozen view of a frozen array: the message owns what it holds
    frozen = np.zeros((2, 2, N_ACTIONS))
    frozen.flags.writeable = False
    assert MessageTensor(frozen[:], FORWARD).values.flags.owndata


@pytest.mark.parametrize("shape", [(3, 3), (3, 3, 4), (3, 3, 9, 1), (9,)])
def test_messages_refuse_values_not_shaped_rows_cols_nine(shape):
    with pytest.raises(ValueError, match=re.escape(str(shape))):
        MessageTensor(np.ones(shape), FORWARD)


def test_backward_step_keeps_free_support_positive(empty5):
    grid, kernel, p = empty5
    uniform = np.full((5, 5, N_ACTIONS), 1.0)
    out = backward_step(MessageTensor(uniform / uniform.sum(), BACKWARD), kernel, p)
    assert (out.values.sum(axis=2) > 0).all()


def test_backward_terminal_support_is_gatherable_neighborhood(empty5):
    grid, kernel, p = empty5
    goal = goal_marginal([(2, 2)], grid)
    b = backward_terminal(goal, kernel)
    # support is exactly the (cell, action) pairs whose stencil reaches the goal
    for i in range(5):
        for j in range(5):
            for a in range(N_ACTIONS):
                du, dv = 2 - i + 1, 2 - j + 1
                reaches = (
                    0 <= du <= 2
                    and 0 <= dv <= 2
                    and kernel.stencils[i, j, a, du, dv] > 0
                )
                assert (b.values[i, j, a] > 0) == reaches


@pytest.mark.parametrize("sharpness", [0.3, 0.8, 0.99])
def test_shift_scatter_and_gather_are_adjoint(rng, sharpness):
    # <scatter(x), y> == <x, gather(y)>; a plane or offset swapped in
    # either direction breaks it, and 6 x 9 maps tell rows from columns
    masks = default_masks(sharpness)
    for _ in range(5):
        grid = random_map(rng, 6, 9, 0.25)
        stencils = build_kernel(grid, masks).stencils
        x = rng.random((6, 9, N_ACTIONS))
        y = rng.random((6, 9, N_ACTIONS))
        lhs = (_shift(x, stencils, False) * y).sum()
        rhs = (x * _shift(y, stencils, True)).sum()
        assert lhs == pytest.approx(rhs, rel=1e-12)
        # the cells-only gather is the adjoint of the scatter summed over actions
        cells = y[:, :, 0]
        lhs = (_shift(x, stencils, False).sum(axis=2) * cells).sum()
        rhs = (x * _shift(cells[:, :, None], stencils, True)).sum()
        assert lhs == pytest.approx(rhs, rel=1e-12)


def loop_shift(values, stencils, gather, semiring=_SUM) -> np.ndarray:
    """The reference pass: a loop over the nine offsets that adds, in
    u-major order, each offset's stencil plane times the input moved by it
    on the cells where both lie inside the window."""
    zero, add, multiply = semiring
    out = np.full(stencils.shape[:3], zero, np.result_type(stencils, values))
    # per axis length k and offset d: a source range and that range moved by d
    rows, cols = (
        [(slice(max(0, -d), k - max(0, d)), slice(max(0, d), k + min(0, d)))
         for d in (-1, 0, 1)]
        for k in stencils.shape[:2]
    )
    for u, (rs, rd) in enumerate(rows):
        for v, (cs, cd) in enumerate(cols):
            src, dst = (rs, cs), (rd, cd)
            into, source = (src, dst) if gather else (dst, src)
            view = out[into]
            add(view, multiply(stencils[src][..., u, v], values[source]), out=view)
    return out


PASS_SIDE = st.integers(0, 30)  # a decoder's tube may clip a window to nothing
PASS_SHAPES = st.one_of(
    st.tuples(st.just(1), PASS_SIDE), st.tuples(PASS_SIDE, st.just(1)),
    st.tuples(PASS_SIDE, PASS_SIDE),
)


@settings(max_examples=200, deadline=None)
@given(
    PASS_SHAPES,
    st.sampled_from(["sum", "support", "cell_support", "max", "lse"]),
    st.booleans(),
    st.booleans(),
    # one row per band, a few rows per band, and the default
    st.sampled_from([1, 3000, 40000, engine._BAND_BYTES]),
    st.integers(0, 2**32 - 1),
)
def test_shift_is_the_nine_offset_loop_byte_for_byte(
    shape, kind, gather, cells_only, band_bytes, seed
):
    rows, cols = shape
    rng = np.random.default_rng(seed)
    # a window of a larger grid, so that the planes are strided crops
    kernel = build_kernel(random_map(rng, rows + 2, cols + 2, 0.25))
    i, j = rng.integers(0, 3, size=2)
    window = (slice(i, i + rows), slice(j, j + cols))
    stencils, semiring = {
        "sum": (kernel.stencils, _SUM),
        "support": (kernel.support, _SUM),
        "cell_support": (kernel.cell_support, _SUM),
        "max": (kernel.log_stencils, _MAX),
        "lse": (kernel.log_stencils, _LSE),
    }[kind]
    stencils = stencils[window]
    depth = 1 if cells_only else stencils.shape[2]
    x = rng.random((rows, cols, depth)) * (rng.random((rows, cols, depth)) < 0.6)
    values = x > 0.0 if "support" in kind else _log(x) if kind in ("max", "lse") else x
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(engine, "_BAND_BYTES", band_bytes)
        got = _shift(values, stencils, gather, semiring)
    want = loop_shift(values, stencils, gather, semiring)
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()


def _outside(values: np.ndarray, box, blank: float = 0.0) -> np.ndarray:
    """``values`` with the cells of ``box`` set to ``blank``."""
    rest = values.copy()
    rest[box] = blank
    return rest


SIDE = st.integers(1, 8)
# a third of the grids is a single row or a single column
SHAPES = st.one_of(
    st.tuples(st.just(1), SIDE), st.tuples(SIDE, st.just(1)), st.tuples(SIDE, SIDE)
)


@settings(max_examples=60, deadline=None)
@given(SHAPES, st.floats(0.05, 0.95), st.integers(0, 2**32 - 1), st.data())
def test_windowed_passes_equal_the_whole_grid_pass(shape, sharpness, seed, data):
    rows, cols = shape
    rng = np.random.default_rng(seed)
    grid = random_map(rng, rows, cols, 0.25)
    kernel = build_kernel(grid, default_masks(sharpness))
    r0, r1 = sorted(data.draw(st.lists(st.integers(0, rows), min_size=2, max_size=2)))
    c0, c1 = sorted(data.draw(st.lists(st.integers(0, cols), min_size=2, max_size=2)))
    box = (slice(r0, r1), slice(c0, c1))
    x = np.zeros((rows, cols, N_ACTIONS))
    x[box] = rng.random(x[box].shape) * (rng.random(x[box].shape) < 0.7)
    window = _grow(box, kernel)
    stencils, support = kernel.stencils, kernel.support
    for values in (x, x.sum(axis=2, keepdims=True)):  # pairs, then cells only
        for gather in (False, True):
            if values.shape[2] == 1 and not gather:
                continue
            for v, s in ((values, stencils), (values > 0.0, support)):
                # the pass on crops to the window is the whole-grid pass
                # there, and the whole-grid pass is zero outside it
                whole = _shift(v, s, gather)
                windowed = _shift(v[window], s[window], gather)
                assert windowed.tobytes() == whole[window].tobytes()
                assert not _outside(whole, window).any()
    log_stencils = _log(stencils)
    for semiring in (_MAX, _LSE):
        whole = _shift(_log(x), log_stencils, True, semiring)
        windowed = _shift(_log(x)[window], log_stencils[window], True, semiring)
        assert windowed.tobytes() == whole[window].tobytes()
        assert (_outside(whole, window, -np.inf) == -np.inf).all()
    # every crop of a sweep, expanded with its fill, is the whole-grid pass
    kind = data.draw(st.sampled_from(["0", "0.5", "1", "general"]))
    p_sweep = _p_action(kind, np.random.default_rng([seed, 1]))
    mix_forward, mix_backward = engine._support_mixers(p_sweep)
    cells = x.any(axis=2, keepdims=True)
    for seed_values, s, gather, semiring, mix in (
        (x > 0.0, support, False, _SUM, mix_forward),
        (x > 0.0, support, True, _SUM, mix_backward),
        (cells, kernel.cell_support, False, _SUM, engine._unmixed),
        (cells, kernel.cell_support, True, _SUM, engine._unmixed),
        (_log(x), log_stencils, True, _MAX, engine._max_mixer(p_sweep)),
        (_log(x), log_stencils, True, _LSE, engine._lse_mixer(p_sweep)),
    ):
        start = engine._Crop(box, seed_values[box], semiring[0])
        sweep = engine._sweep(kernel, start, s, gather, semiring, mix)
        values = seed_values
        for crop in islice(sweep, 4):
            moved = _shift(values, s, gather, semiring=semiring)
            values = mix(moved)
            # a gather yields the pass, a scatter the mixed pass
            want = moved if gather else values
            assert crop[_grow(None, kernel)].tobytes() == want.tobytes()

    free = free_cells(grid)
    if not free:
        return
    start = free[rng.integers(len(free))]
    goal = goal_marginal([free[k] for k in rng.integers(len(free), size=2)], grid)
    horizon = int(rng.integers(2, 7))
    p = action_matrix(float(rng.choice([0.0, 0.5, 1.0])))
    flows = run_flows(kernel, p, start, goal, horizon)
    chain = backward_flow(kernel, p, goal, horizon)
    for message in (*flows.forward, *flows.backward, *chain, *flows.posterior):
        rows, cols = message._crop.box
        assert message._crop.values.shape[:2] == (rows.stop - rows.start,
                                                  cols.stop - cols.start)
        assert not _outside(message.values, message._crop.box).any()
    # the posterior on the boxes' intersection equals the whole-grid product
    for f, b, q in zip(flows.forward, flows.backward, flows.posterior):
        whole = posterior(
            MessageTensor(f.values, FORWARD), MessageTensor(b.values, BACKWARD)
        )
        assert whole._crop.box == _grow(None, kernel)
        assert q.values.tobytes() == whole.values.tobytes()
    # slice T-1-k of the max-product chain is the goal box grown k+1 times
    box = engine._box_of(goal > 0.0)
    for values in reversed(log_flow(kernel, p, goal, horizon)):
        box = _grow(box, kernel)
        assert not np.isfinite(_outside(values, box, -np.inf)).any()


def recorded_windows(monkeypatch) -> list[tuple[int, int]]:
    """The (rows, cols) window of every stencil pass from here on, in order."""
    shapes = []
    shift = engine._shift

    def recording(values, stencils, *args, **kwargs):
        shapes.append(stencils.shape[:2])
        return shift(values, stencils, *args, **kwargs)

    monkeypatch.setattr(engine, "_shift", recording)
    return shapes


def test_stencil_passes_run_on_the_support_window(monkeypatch):
    shapes = recorded_windows(monkeypatch)
    grid = GridMap.empty(60, 60)
    kernel, p = build_kernel(grid), action_matrix(0.0)
    goal = goal_marginal([(59, 59)], grid)

    backward_terminal(goal, kernel)
    assert shapes == [(2, 2)]
    shapes.clear()
    forward_step(initial_forward(kernel, (30, 30)), kernel, p)
    forward_step(initial_forward(kernel, (0, 30)), kernel, p)
    assert shapes == [(3, 3), (2, 3)]
    shapes.clear()
    run_flows(kernel, p, (0, 0), goal, 10)
    # nine forward and nine backward passes, each window one cell wider
    assert sorted(shapes) == sorted([(k, k) for k in range(2, 11)] * 2)


def test_a_gather_mixes_its_result_on_the_next_pass_window():
    # padded first, then mixed: the pass's result can then reuse the padded
    # copy's memory, where mixing first left a hole per pass in the heap
    grid = GridMap.empty(60, 60)
    kernel, p = build_kernel(grid), action_matrix(0.5)
    mixed = []

    def mix(v):
        mixed.append(v.shape)
        return v @ p.T

    seed = engine._Crop((slice(59, 60), slice(59, 60)), np.ones((1, 1, 1)), 0.0)
    sweep = engine._sweep(kernel, seed, kernel.stencils, True, _SUM, mix)
    crops = list(islice(sweep, 5))
    assert [c.values.shape[:2] for c in crops] == [(k, k) for k in range(2, 7)]
    assert mixed == [(k, k, N_ACTIONS) for k in range(3, 7)]


def _one_sided_min_time(kernel, p, start, goal, t_max, pinned):
    """The horizon of the one-sided max-product sweep from the goal, or its
    UnreachableError message."""
    try:
        return len(max_chain(kernel, p, start, goal, t_max, pinned)) + 1
    except UnreachableError as err:
        return str(err)


def _p_action(kind: str, rng) -> np.ndarray:
    if kind != "general":
        return action_matrix(float(kind))
    # zero entries anywhere, asymmetric, and at least one per row kept
    p = rng.random((N_ACTIONS, N_ACTIONS)) * (rng.random((N_ACTIONS, N_ACTIONS)) < 0.2)
    p[range(N_ACTIONS), rng.integers(N_ACTIONS, size=N_ACTIONS)] += 0.5
    return p / p.sum(axis=1, keepdims=True)


def _text_map(lines) -> GridMap:
    return GridMap.from_mask([[c == "#" for c in line] for line in lines])


@st.composite
def _layouts(draw):
    """A random map as rows of text, with four (start, goals) queries on its
    free cells; a third of the maps is a single row or a single column."""
    rows, cols = draw(SHAPES)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    mask = rng.random((rows, cols)) < float(rng.choice([0.0, 0.2, 0.4]))
    mask[rng.integers(rows), rng.integers(cols)] = False
    free = [tuple(int(v) for v in c) for c in np.argwhere(~mask)]
    lines = tuple("".join(".#"[int(v)] for v in row) for row in mask)
    queries = tuple(
        (free[rng.integers(len(free))],
         tuple(free[k] for k in rng.integers(len(free), size=int(rng.integers(1, 3)))))
        for _ in range(4)
    )
    return lines, queries


def _masks(kind: str, rng) -> dict:
    """``default_masks`` at a random sharpness, or masks with random zero
    entries: ``"zeros"`` keeps some mass on the current cell, ``"no
    residue"`` none, but some on each of its four sides, so that a free
    cell with a free side keeps some mass."""
    if kind == "default":
        return default_masks(float(rng.uniform(0.05, 0.95)))
    masks = {}
    for action in ACTIONS:
        m = rng.random((3, 3)) * (rng.random((3, 3)) < 0.5)
        if kind == "zeros":
            m[1, 1] += 0.1
        else:
            m[1, 1] = 0.0
            m[[0, 1, 1, 2], [1, 0, 2, 1]] += 0.1
        masks[action] = m / m.sum()
    return masks


# the cells repeat one gather before the (cell, action) pairs do, and the
# horizon ends in between: a repeat of the cells alone says "fixed point"
_CELLS_LEAD = [
    (("..#####.#",), (0, 7), (0, 1), 3),
    (("..##....#", "#.#...##."), (0, 1), (0, 6), 5),
]


@settings(max_examples=150, deadline=None)
@given(
    _layouts(),
    st.integers(0, 2**32 - 1),
    st.sampled_from(["0", "0.5", "1", "general"]),
    st.sampled_from(["default", "zeros", "no residue"]),
    st.integers(0, N_ACTIONS - 1),
    st.one_of(st.integers(2, 12), st.just(1000)),
)
@example((("..#####.#",), (((0, 7), ((0, 1),)),)), 0, "0", "default", 0, 3)
@example((("..##....#", "#.#...##."), (((0, 1), ((0, 6),)),)), 0, "0", "default", 0, 5)
def test_min_time_meets_the_one_sided_sweep(
    layout, seed, p_kind, masks_kind, pinned, t_max
):
    lines, queries = layout
    grid = _text_map(lines)
    rng = np.random.default_rng(seed)
    try:
        kernel = build_kernel(grid, _masks(masks_kind, rng))
    except KernelDegenerateError:
        return  # a free cell walled in on four sides, under "no residue"
    p = _p_action(p_kind, rng)
    for start, goals in queries:
        goal = goal_marginal(list(goals), grid)
        for heading in (None, pinned):
            want = _one_sided_min_time(kernel, p, start, goal, t_max, heading)
            try:
                got = min_time(kernel, p, start, goal, t_max, start_action=heading)
            except UnreachableError as err:
                got = str(err)
            assert got == want


@pytest.mark.parametrize("lines, start, goal_cell, t_max", _CELLS_LEAD)
def test_min_time_on_cells_keeps_the_pairs_message(lines, start, goal_cell, t_max):
    grid = _text_map(lines)
    kernel, p = build_kernel(grid), action_matrix(0.0)
    goal = goal_marginal([goal_cell], grid)
    want = _one_sided_min_time(kernel, p, start, goal, t_max, None)
    assert want.startswith("no backward mass")
    with pytest.raises(UnreachableError, match=re.escape(want)):
        min_time(kernel, p, start, goal, t_max)


def test_unpinned_min_time_sweeps_only_the_cell_plane(monkeypatch):
    # a structural guard: with a free start action and no zero entry in
    # p_action, every pass of min_time carries one value per cell and the
    # (cell, action) support is never built
    depths = []
    shift = engine._shift

    def recording(values, stencils, *args, **kwargs):
        depths.append((values.shape[2], stencils.shape[2]))
        return shift(values, stencils, *args, **kwargs)

    monkeypatch.setattr(engine, "_shift", recording)
    grid, start, goal_cell, d = feasible_instance(
        np.random.default_rng(5), 30, 30, 0.15, min_distance=20
    )
    goal = goal_marginal([goal_cell], grid)
    for stiffness in (0.0, 0.5, 0.9):
        kernel = build_kernel(grid)
        p = action_matrix(stiffness)
        assert min_time(kernel, p, start, goal, 1000) == d + 1
        with pytest.raises(UnreachableError, match="within horizon"):
            min_time(kernel, p, start, goal, d)
        assert "support" not in vars(kernel)
    assert depths and set(depths) == {(1, 1)}
    # a pinned start action sweeps the pairs
    depths.clear()
    assert min_time(kernel, p, start, goal, 1000, start_action=0) >= d + 1
    assert (N_ACTIONS, N_ACTIONS) in depths and "support" in vars(kernel)


@pytest.mark.parametrize("t_max", [2, 3, 4, 5, 8, 1000])
def test_min_time_past_its_cap_names_the_fixed_point_of_the_goal_side(t_max):
    # the goal is walled in, so its support is fixed after one gather while
    # the start's side keeps growing; the one-sided sweep reports the fixed
    # point whenever its cap leaves room for a second gather
    grid = GridMap.empty(1, 12).with_obstacles([(0, 10)])
    kernel, p = build_kernel(grid), action_matrix(0.0)
    goal = goal_marginal([(0, 11)], grid)
    want = _one_sided_min_time(kernel, p, (0, 0), goal, t_max, None)
    assert ("fixed point" in want) == (t_max > 2)
    with pytest.raises(UnreachableError, match=re.escape(want)):
        min_time(kernel, p, (0, 0), goal, t_max)


def test_min_time_meets_in_the_middle(monkeypatch):
    shapes = recorded_windows(monkeypatch)
    grid = GridMap.empty(60, 60)
    kernel, p = build_kernel(grid), action_matrix(0.0)
    goal = goal_marginal([(59, 59)], grid)
    assert min_time(kernel, p, (0, 0), goal, 1000) == 60
    assert shapes and max(max(shape) for shape in shapes) <= 32
    # from one side alone the sweep reaches the far corner
    shapes.clear()
    assert len(max_chain(kernel, p, (0, 0), goal, 1000)) + 1 == 60
    assert (60, 60) in shapes


def test_min_time_stops_the_side_of_a_walled_in_start(monkeypatch):
    # F repeats after one move; B sweeps the map to its fixed point, about
    # 40 passes, where a forward side that kept going would spin to the
    # 40 * 40 * 9 move cap
    shapes = recorded_windows(monkeypatch)
    walls = [(20 + i, 20 + j) for i in (-1, 0, 1) for j in (-1, 0, 1) if i or j]
    grid = GridMap.empty(40, 40).with_obstacles(walls)
    kernel, p = build_kernel(grid), action_matrix(0.0)
    goal = goal_marginal([(20, 0)], grid)
    with pytest.raises(UnreachableError, match="fixed point"):
        min_time(kernel, p, (20, 20), goal, 10**9)
    assert 0 < len(shapes) <= 45  # the search makes 42


@pytest.mark.parametrize("stiffness", [0.0, 1.0])
def test_greedy_tube_is_exact_where_greedy_reads_it(rng, stiffness):
    # the decoders read the tubes: the log ones (max-product, and the
    # sum-product redo of sampling) byte for byte, the sum-product one up
    # to one positive scale per slice
    p = action_matrix(stiffness)
    for rows, cols in ((9, 13), (1, 12), (12, 1), (16, 16)):
        grid, start, goal_cell, d = feasible_instance(rng, rows, cols, 0.15)
        kernel = build_kernel(grid)
        goal = goal_marginal([goal_cell], grid)
        for horizon in (d + 1, d + 4):
            max_tube = engine._tube(kernel, p, goal, horizon, start, _MAX)
            sum_tube = engine._tube(kernel, p, goal, horizon, start, _SUM)
            lse_tube = engine._tube(kernel, p, goal, horizon, start, _LSE)
            max_whole = log_flow(kernel, p, goal, horizon)
            lse_whole = log_flow(kernel, p, goal, horizon, _LSE)
            sum_flow = [m.values for m in backward_flow(kernel, p, goal, horizon)]
            assert len(max_tube) == len(sum_tube) == horizon - 1
            for s in range(1, horizon):
                # a path from the start is within s - 2 steps at slice s - 1
                # and reads slice s on its 3 x 3 neighbourhood
                cells = engine._around(start, s - 1, kernel)
                got, want = max_tube[s - 1][cells], max_whole[s - 1][cells]
                assert got.tobytes() == want.tobytes()
                got, want = lse_tube[s - 1][cells], lse_whole[s - 1][cells]
                assert got.tobytes() == want.tobytes()
                got, want = sum_tube[s - 1][cells], sum_flow[s - 1][cells]
                scale = want.sum() / got.sum() if got.any() else 1.0
                assert scale > 0.0
                assert np.allclose(got * scale, want, rtol=1e-9, atol=0.0)


def test_caller_built_messages_run_on_the_whole_grid(empty5, monkeypatch):
    grid, kernel, p = empty5
    shapes = recorded_windows(monkeypatch)
    message = joint_delta(grid, (2, 2), 0)
    assert message._crop.box == _grow(None, kernel)
    out = forward_step(message, kernel, p)
    assert shapes == [(5, 5)]
    assert out.values.tobytes() == forward_step(
        initial_forward(kernel, (2, 2), np.eye(N_ACTIONS)[0]), kernel, p
    ).values.tobytes()


def test_flow_messages_keep_only_the_crop_on_their_box():
    # a walled map on which the forward and backward cones stay inside the
    # grid for most slices, and posteriors on their intersection
    sc = parse_scenario(scenarios.load("maze15"))
    setup = build_setup(sc)
    kernel = setup.kernel
    flows = run_flows(kernel, setup.p_action, sc.start_cell, setup.goal, 30)
    messages = (*flows.forward, *flows.backward, *flows.posterior)
    whole = engine._area(_grow(None, kernel))
    assert sum(engine._area(m._crop.box) < whole for m in messages) > len(messages) // 2
    for message in messages:
        crop = message._crop
        placed = np.zeros((sc.grid.rows, sc.grid.cols, N_ACTIONS))
        placed[message._crop.box] = crop.values
        assert crop.box == message._crop.box
        assert message.values.tobytes() == placed.tobytes()
        # the crop owns its bytes, or views an array of no more: no message
        # holds on to a whole-grid array
        root = crop.values
        while root.base is not None:
            root = root.base
        assert root.nbytes == engine._area(message._crop.box) * N_ACTIONS * 8


def test_steps_refuse_a_message_of_another_grid(empty5):
    grid, kernel, p = empty5
    for rows, cols in ((4, 5), (5, 6), (6, 6)):
        other = build_kernel(GridMap.empty(rows, cols))
        f = initial_forward(other, (0, 0))
        b = backward_terminal(goal_marginal([(0, 0)], other.grid), other)
        for step in (lambda: forward_step(f, kernel, p),
                     lambda: forward_final(f, kernel),
                     lambda: backward_step(b, kernel, p)):
            with pytest.raises(ValueError, match="shape does not match the grid"):
                step()


def test_steps_refuse_a_message_of_another_kind(empty5):
    grid, kernel, p = empty5
    f = initial_forward(kernel, (0, 0))
    b = backward_terminal(goal_marginal([(4, 4)], grid), kernel)
    q = posterior(f, b)
    calls = [
        (lambda: forward_step(b, kernel, p), "forward_step expects a forward"),
        (lambda: forward_step(q, kernel, p), "forward_step expects a forward"),
        (lambda: backward_step(f, kernel, p), "backward_step expects a backward"),
        (lambda: backward_step(q, kernel, p), "backward_step expects a backward"),
        # at the parent these two returned a marginal summing to 1
        (lambda: forward_final(b, kernel), "forward_final expects a forward"),
        (lambda: forward_final(q, kernel), "forward_final expects a forward"),
    ]
    for first, second in ((b, f), (f, f), (b, b), (q, b), (f, q)):
        calls.append((lambda x=first, y=second: posterior(x, y),
                      "posterior expects a forward and a backward"))
    for call, match in calls:
        with pytest.raises(ValueError, match=match):
            call()


def test_backward_terminal_is_linear_in_the_goal(empty5):
    # both goals sit on interior cells of an empty grid, so their censored
    # gathers carry equal total mass and the mixture is a plain average
    grid, kernel, p = empty5
    both = backward_terminal(goal_marginal([(1, 1), (3, 3)], grid), kernel)
    one = backward_terminal(goal_marginal([(1, 1)], grid), kernel)
    two = backward_terminal(goal_marginal([(3, 3)], grid), kernel)
    assert np.allclose(both.values, 0.5 * (one.values + two.values), atol=1e-12)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_goal_arrays_are_refused(empty5, bad):
    grid, kernel, p = empty5
    goal = goal_marginal([(4, 4)], grid)
    goal[1, 1] = bad
    calls = (
        lambda: run_flows(kernel, p, (0, 0), goal, 6),
        lambda: backward_flow(kernel, p, goal, 6),
        lambda: min_time(kernel, p, (0, 0), goal, 20),
        lambda: engine._tube(kernel, p, goal, 6, (0, 0), _MAX),
        lambda: engine._tube(kernel, p, goal, 6, (0, 0), _LSE),
    )
    for call in calls:
        with pytest.raises(ValueError, match="non-finite"):
            call()


def test_goal_arrays_whose_sum_overflows_are_scaled_first(empty5):
    grid, kernel, p = empty5
    goal = goal_marginal([(4, 4), (2, 4)], grid)
    huge = goal / goal.max() * 1e308  # two entries of 1e308
    assert list(huge[huge > 0]) == [1e308, 1e308]
    want = run_flows(kernel, p, (0, 0), goal, 6)
    got = run_flows(kernel, p, (0, 0), huge, 6)
    for a, b in zip(want.backward, got.backward):
        assert a.values.tobytes() == b.values.tobytes()
    assert got.posterior_final.tobytes() == want.posterior_final.tobytes()
    t_min = min_time(kernel, p, (0, 0), goal, 20)
    assert min_time(kernel, p, (0, 0), huge, 20) == t_min


def test_goal_entries_that_underflow_against_the_total_are_refused(empty5):
    # normalized, 1e-30 against 1e300 is 0.0: the goal at (0, 4), next to
    # the start, would silently drop out of every flow and search
    grid, kernel, p = empty5
    goal = np.zeros((5, 5))
    goal[4, 4], goal[0, 4] = 1e300, 1e-30
    match = r"goal weight of \(0, 4\) underflows to 0 against the total"
    with pytest.raises(InvalidGoalError, match=match):
        min_time(kernel, p, (0, 3), goal, 100)
    with pytest.raises(InvalidGoalError, match=match):
        run_flows(kernel, p, (0, 3), goal, 6)


def test_non_finite_start_actions_are_refused(empty5):
    grid, kernel, p = empty5
    goal = goal_marginal([(4, 4)], grid)
    nan, inf = np.ones(N_ACTIONS), np.ones(N_ACTIONS)
    nan[3], inf[3] = np.nan, np.inf
    # a nan or inf entry, and finite entries whose total overflows
    for pi in (nan, inf, np.full(N_ACTIONS, 1e308)):
        with pytest.raises(ValueError, match="finite total"):
            run_flows(kernel, p, (0, 0), goal, 6, start_actions=pi)


def _p_with(entry: float) -> np.ndarray:
    p = action_matrix(0.5).copy()
    p[2, 3] = entry
    return p


@pytest.mark.parametrize(
    "bad, match",
    [
        (np.full((N_ACTIONS, N_ACTIONS), np.nan), "finite and nonnegative"),
        (np.full((N_ACTIONS, N_ACTIONS), np.inf), "finite and nonnegative"),
        (_p_with(np.nan), "finite and nonnegative"),
        (_p_with(-0.1), "finite and nonnegative"),
        (np.full((3, 3), 1 / 3), r"9 x 9 matrix, got shape \(3, 3\)"),
        (np.full(N_ACTIONS, 1 / 9), r"9 x 9 matrix, got shape \(9,\)"),
    ],
    ids=["nan", "inf", "one-nan", "negative", "3x3", "vector"],
)
def test_p_action_must_be_a_finite_nonnegative_nine_by_nine_matrix(empty5, bad, match):
    # at the parent, nan or inf gave non-finite posteriors, min_time raised
    # UnreachableError on nan and returned 6 on inf, and 3 x 3 failed in matmul
    grid, kernel, _ = empty5
    goal = goal_marginal([(4, 4)], grid)
    f, b = initial_forward(kernel, (0, 0)), backward_terminal(goal, kernel)
    calls = (
        lambda: run_flows(kernel, bad, (0, 0), goal, 6),
        lambda: backward_flow(kernel, bad, goal, 6),
        lambda: forward_step(f, kernel, bad),
        lambda: backward_step(b, kernel, bad),
        lambda: min_time(kernel, bad, (0, 0), goal, 20),
    )
    for call in calls:
        with pytest.raises(ValueError, match=match):
            call()


def test_backward_terminal_rejects_goal_on_obstacles():
    grid = GridMap.empty(4, 4).with_obstacles([(1, 1)])
    kernel = build_kernel(grid)
    goal = np.zeros((4, 4))
    goal[1, 1] = 1.0
    with pytest.raises(InvalidGoalError):
        backward_terminal(goal, kernel)


def test_forward_final_still_delta(empty5):
    grid, kernel, p = empty5
    marginal = forward_final(joint_delta(grid, (3, 1), 0), kernel)
    assert marginal[3, 1] == pytest.approx(1.0)
    assert marginal.sum() == pytest.approx(1.0, abs=1e-9)


def test_posterior_product_rules(empty5):
    grid, kernel, p = empty5
    f = joint_delta(grid, (2, 2), 3)
    b_vals = np.full((5, 5, N_ACTIONS), 1.0 / (25 * N_ACTIONS))
    post = posterior(f, MessageTensor(b_vals, BACKWARD))
    assert post.values[2, 2, 3] == pytest.approx(1.0)
    # disjoint supports produce a dead posterior, not an error
    b_zero = np.zeros((5, 5, N_ACTIONS))
    b_zero[0, 0, 0] = 1.0
    dead = posterior(f, MessageTensor(b_zero, BACKWARD))
    assert dead.is_dead


def test_messages_match_dense_oracle(rng):
    worst = 0.0
    for _ in range(6):
        grid, start, goal_cell, _ = feasible_instance(rng, 4, 4)
        kernel = build_kernel(grid)
        p = action_matrix(0.0)
        goal = goal_marginal([goal_cell], grid)
        horizon = int(rng.integers(2, 8))
        flows = run_flows(kernel, p, start, goal, horizon)
        dense = dense_messages(dense_chain(kernel, p), start, goal, horizon)
        for t in range(horizon - 1):
            worst = max(worst, np.abs(flows.forward[t].values - dense.forward[t]).max())
            worst = max(worst, np.abs(flows.backward[t].values - dense.backward[t]).max())
            worst = max(worst, np.abs(flows.posterior[t].values - dense.posterior[t]).max())
        worst = max(worst, np.abs(flows.forward_final - dense.forward_final).max())
        worst = max(worst, np.abs(flows.posterior_final - dense.posterior_final).max())
    assert worst <= 1e-12


def test_run_flows_posterior_support_lies_on_geodesics():
    grid = GridMap.empty(5, 5)
    kernel = build_kernel(grid)
    p = action_matrix(0.0)
    goal = goal_marginal([(4, 4)], grid)
    flows = run_flows(kernel, p, (0, 0), goal, 5)
    for t in range(1, 5):
        marginal = flows.posterior[t - 1].state_marginal()
        assert marginal.sum() > 0
        for i, j in np.argwhere(marginal > 0):
            d_start = bfs_distance(grid, (0, 0), [(int(i), int(j))])
            d_goal = bfs_distance(grid, (int(i), int(j)), [(4, 4)])
            assert d_start <= t - 1
            assert d_goal <= 5 - t


def test_run_flows_t2_adjacent_support():
    grid = GridMap.empty(4, 4)
    kernel = build_kernel(grid)
    flows = run_flows(kernel, action_matrix(0.0), (0, 0), goal_marginal([(1, 1)], grid), 2)
    support = np.argwhere(flows.posterior[0].values > 0)
    assert {tuple(map(int, s[:2])) for s in support} == {(0, 0)}
    names = {int(a) for *_, a in support}
    assert names == {
        ACTION_BY_NAME["right"].index,
        ACTION_BY_NAME["down-right"].index,
        ACTION_BY_NAME["down"].index,
    }


def test_run_flows_walled_start_gives_dead_posteriors():
    grid = GridMap.empty(5, 5).with_obstacles(
        [(0, 1), (1, 0), (1, 1)]  # pen the start corner in
    )
    kernel = build_kernel(grid)
    flows = run_flows(
        kernel, action_matrix(0.0), (0, 0), goal_marginal([(4, 4)], grid), 7
    )
    assert all(post.is_dead for post in flows.posterior)
    assert flows.posterior_final.sum() == 0.0


@pytest.mark.xfail(
    strict=True,
    raises=AssertionError,
    reason="each message is normalized over the whole grid, and at T_min on "
    "a long corridor the posterior lives only on both frontiers, whose mass "
    "underflows: every slice dies although a path exists",
)
def test_run_flows_keeps_every_slice_alive_on_a_long_corridor():
    # an empty 1 x 700 corridor from end to end at horizon = auto (T = 700);
    # at 1 x 600 every slice is alive
    flows = scenario_flows(parse_scenario("horizon = auto\n---\nS" + "." * 698 + "G\n"))
    assert flows.horizon == 700
    assert not any(q.is_dead for q in flows.posterior)
    assert flows.posterior_final.sum() == pytest.approx(1.0)


def test_run_flows_forward_normalization_and_support(rng):
    for _ in range(4):
        grid, start, goal_cell, d = feasible_instance(rng, 5, 5)
        kernel = build_kernel(grid)
        p = action_matrix(0.0)
        flows = run_flows(kernel, p, start, goal_marginal([goal_cell], grid), d + 2)
        blocked = ~grid.free
        for f in flows.forward:
            assert abs(f.values.sum() - 1.0) <= 1e-9
            assert not f.values[blocked].any()
        for b in flows.backward:
            assert not b.values[blocked].any()
        for q in flows.posterior:
            assert not q.values[blocked].any()
        assert not flows.forward_final[blocked].any()


def _whole_grid_flows(kernel, p, start, goal, horizon, start_actions):
    """``run_flows``' arrays by the whole-grid recursion: every pass, action
    mix, product, sum and division runs on whole-grid arrays."""
    goal = engine._checked_goal(goal, kernel)
    stencils = kernel.stencils
    forward, norms = [initial_forward(kernel, start, start_actions).values], []
    for _ in range(2, horizon):
        moved = _shift(forward[-1], stencils, False) @ p
        norms.append(moved.sum())
        forward.append(moved / norms[-1])
    fin = _shift(forward[-1], stencils, False).sum(axis=2)
    norms.append(fin.sum())
    fin = fin / norms[-1]
    gathered = _shift(goal[:, :, None], stencils, True)
    backward = [gathered / gathered.sum()]
    for _ in range(horizon - 2):
        gathered = _shift(backward[-1] @ p.T, stencils, True)
        total = gathered.sum()
        backward.append(gathered / total if total > 0.0 else gathered)
    backward.reverse()
    products = [f * b for f, b in zip(forward, backward)] + [fin * goal]
    posteriors = [q / q.sum() if q.sum() > 0.0 else q for q in products]
    return forward, fin, norms, backward, goal, posteriors


def _flow_arrays(flows) -> list[np.ndarray]:
    """Every array of a ``FlowSet``: the messages, then the final slices."""
    got = [m.values for m in (*flows.forward, *flows.backward, *flows.posterior)]
    return got + [flows.forward_final, flows.backward_final, flows.posterior_final]


def _flow_bytes(flows) -> list[bytes]:
    arrays = [*_flow_arrays(flows), np.array(flows.forward_norms)]
    return [str(a.shape).encode() + a.tobytes() for a in arrays]


def _chained_steps(kernel, p, start, goal, horizon, start_actions) -> list[np.ndarray]:
    """``run_flows``' messages and forward final by the public steps, chained
    one call per slice, in ``_flow_arrays``' order."""
    forward = [initial_forward(kernel, start, start_actions)]
    for _ in range(2, horizon):
        forward.append(forward_step(forward[-1], kernel, p))
    backward = [backward_terminal(goal, kernel)]
    for _ in range(horizon - 2):
        backward.insert(0, backward_step(backward[0], kernel, p))
    chain = backward_flow(kernel, p, goal, horizon)
    assert [b.values.tobytes() for b in chain] == [b.values.tobytes() for b in backward]
    posteriors = [posterior(f, b) for f, b in zip(forward, backward)]
    messages = [m.values for m in (*forward, *backward, *posteriors)]
    return messages + [forward_final(forward[-1], kernel)]


@pytest.mark.parametrize("pinned", [None, 0, ACTION_BY_NAME["right"].index])
@pytest.mark.parametrize("stiffness", [0.0, 0.5, 1.0])
def test_run_flows_is_bit_identical_to_the_whole_grid_recursion(rng, stiffness, pinned):
    # the steps run on crops of the support window and sum the whole grid
    # in the whole-grid order, so every byte matches, including the norms;
    # a window is one column wide only on a one-column grid, where BLAS
    # takes another path for the action mix.  The 70 x 70 map is above
    # engine._THREADED_CELLS, so its backward flow runs on a second thread
    p = action_matrix(stiffness)
    start_actions = None if pinned is None else np.eye(N_ACTIONS)[pinned]
    maps = ((9, 13, 2, 0.2), (6, 7, 12, 0.2), (1, 15, 3, 0.2), (12, 1, 4, 0.2),
            (70, 70, 3, 0.1))
    assert 70 * 70 >= engine._THREADED_CELLS
    for rows, cols, extra, density in maps:
        grid, start, goal_cell, d = feasible_instance(rng, rows, cols, density)
        kernel = build_kernel(grid)
        goal = goal_marginal([goal_cell], grid)
        horizon = d + extra
        flows = run_flows(kernel, p, start, goal, horizon, start_actions)
        forward, fin, norms, backward, goal, posteriors = _whole_grid_flows(
            kernel, p, start, goal, horizon, start_actions
        )
        got = _flow_arrays(flows)
        want = [*forward, *backward, *posteriors[:-1], fin, goal, posteriors[-1]]
        assert len(got) == len(want)
        for a, b in zip(got, want):
            assert a.shape == b.shape and a.tobytes() == b.tobytes()
        assert np.array(flows.forward_norms).tobytes() == np.array(norms).tobytes()
        # the public steps, chained, are the same recursion
        chained = _chained_steps(kernel, p, start, goal, horizon, start_actions)
        assert len(chained) == len(got) - 2
        for a, b in zip(chained, got):
            assert a.shape == b.shape and a.tobytes() == b.tobytes()


@pytest.fixture
def above_the_gate(rng):
    """A 70 x 70 map with 10% obstacles, above ``engine._THREADED_CELLS``,
    its kernel, a start and goal and a horizon three slices past the minimum."""
    grid, start, goal_cell, d = feasible_instance(rng, 70, 70, 0.1)
    assert grid.rows * grid.cols >= engine._THREADED_CELLS
    return build_kernel(grid), start, goal_marginal([goal_cell], grid), d + 4


def test_run_flows_runs_the_backward_flow_beside_the_forward_above_the_gate(
    above_the_gate, empty5, monkeypatch
):
    threads = []
    backward_flow = engine._backward_flow

    def recorded(*args):
        threads.append(threading.current_thread())
        return backward_flow(*args)

    monkeypatch.setattr(engine, "_backward_flow", recorded)
    kernel, start, goal, horizon = above_the_gate
    before = threading.active_count()
    run_flows(kernel, action_matrix(0.5), start, goal, horizon)
    assert threading.active_count() == before
    grid, small, p = empty5
    run_flows(small, p, (0, 0), goal_marginal([(4, 4)], grid), 6)
    caller = threading.current_thread()
    assert threads[0] is not caller and threads[1] is caller


def test_threaded_run_flows_raises_in_the_serial_order_and_joins(
    above_the_gate, monkeypatch
):
    kernel, start, goal, horizon = above_the_gate
    p, zeros = action_matrix(0.5), np.zeros((N_ACTIONS, N_ACTIONS))
    before = threading.active_count()
    # all zeros: the forward mass vanishes while the backward flow runs
    with monkeypatch.context() as serial:
        serial.setattr(engine, "_THREADED_CELLS", 10**9)
        with pytest.raises(DeadFlowError) as want:
            run_flows(kernel, zeros, start, goal, horizon)
    with pytest.raises(DeadFlowError) as got:
        run_flows(kernel, zeros, start, goal, horizon)
    assert str(got.value) == str(want.value)
    assert threading.active_count() == before

    def failing(*args):
        raise RuntimeError("backward failed")

    monkeypatch.setattr(engine, "_backward_flow", failing)
    with pytest.raises(RuntimeError, match="backward failed"):
        run_flows(kernel, p, start, goal, horizon)
    with pytest.raises(DeadFlowError):  # the forward's error comes first
        run_flows(kernel, zeros, start, goal, horizon)
    assert threading.active_count() == before


def test_threaded_run_flows_from_several_caller_threads_agree(above_the_gate):
    # three callers at once, each starting its own backward thread
    kernel, start, goal, horizon = above_the_gate
    p = action_matrix(0.5)
    want = _flow_bytes(run_flows(kernel, p, start, goal, horizon))
    results = {}

    def call(k):
        results[k] = _flow_bytes(run_flows(kernel, p, start, goal, horizon))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-4)
    try:
        callers = [threading.Thread(target=call, args=(k,)) for k in range(3)]
        for caller in callers:
            caller.start()
        for caller in callers:
            caller.join(timeout=120)
            assert not caller.is_alive()
    finally:
        sys.setswitchinterval(interval)
    assert sorted(results) == [0, 1, 2]
    assert all(got == want for got in results.values())


def test_threaded_run_flows_runs_no_public_step_on_the_worker(
    above_the_gate, monkeypatch
):
    # callers, and the benchmark's spans, wrap the public steps by name, so
    # the worker runs only the private body of the backward flow
    kernel, start, goal, horizon = above_the_gate
    p = action_matrix(0.5)
    want = _flow_bytes(run_flows(kernel, p, start, goal, horizon))
    threads = []

    def recorded(step):
        def call(*args, **kwargs):
            threads.append(threading.current_thread())
            return step(*args, **kwargs)
        return call

    for name in ("initial_forward", "forward_step", "forward_final", "backward_terminal",
                 "backward_step", "backward_flow", "posterior"):
        monkeypatch.setattr(engine, name, recorded(getattr(engine, name)))
    got = _flow_bytes(run_flows(kernel, p, start, goal, horizon))
    assert threads and all(t is threading.current_thread() for t in threads)
    assert got == want


def _nothing_moves_into_the_middle() -> TransitionKernel:
    """A 1 x 3 kernel whose end cells stay put and whose middle cell moves
    right: every free cell's stencils sum to one, but no mass enters (0, 1)."""
    planes = np.zeros((3, 3, 1, 3, N_ACTIONS))
    planes[1, 1, 0, [0, 2]] = 1.0
    planes[1, 2, 0, 1] = 1.0
    planes.flags.writeable = False
    return TransitionKernel(GridMap.empty(1, 3), planes.transpose(2, 3, 4, 0, 1))


def test_a_goal_nothing_moves_into_gives_dead_backward_messages():
    kernel = _nothing_moves_into_the_middle()
    p, goal = action_matrix(0.0), goal_marginal([(0, 1)], kernel.grid)
    assert backward_terminal(goal, kernel).is_dead
    assert all(b.is_dead for b in backward_flow(kernel, p, goal, 4))
    flows = run_flows(kernel, p, (0, 0), goal, 4)
    assert all(b.is_dead for b in flows.backward)
    assert all(q.is_dead for q in flows.posterior)
    assert flows.forward_final[0, 0] == 1.0
    assert flows.posterior_final.sum() == 0.0
    dense = dense_messages(dense_chain(kernel, p), (0, 0), goal, 4)
    assert all(not b.any() for b in dense.backward)
    with pytest.raises(UnreachableError):
        min_time(kernel, p, (0, 0), goal, 10)


@pytest.mark.parametrize("start_actions", [None, np.eye(N_ACTIONS)[3]])
def test_run_flows_at_horizon_one_is_the_start_slice(empty5, start_actions):
    grid, kernel, p = empty5
    goal = goal_marginal([((2, 2), 3.0), ((4, 4), 1.0)], grid)
    for start, on_goal in (((2, 2), True), ((0, 0), False)):
        flows = run_flows(kernel, p, start, goal, 1, start_actions)
        assert flows.horizon == 1
        assert flows.forward == flows.backward == flows.posterior == ()
        assert flows.forward_norms == ()
        delta = np.zeros((5, 5))
        delta[start] = 1.0
        assert np.array_equal(flows.forward_final, delta)
        assert np.array_equal(flows.backward_final, goal)
        assert np.array_equal(flows.posterior_final, delta if on_goal else 0 * delta)
    with pytest.raises(ValueError, match="horizon must be at least 1"):
        run_flows(kernel, p, (0, 0), goal, 0)


def test_scenario_flows_of_a_start_on_its_goal_at_auto():
    scenario = Scenario(GridMap.empty(1, 4), (0, 1), [(0, 1), (0, 3)])
    flows = scenario_flows(scenario)
    assert flows.horizon == 1 == greedy_plan(scenario).t_used
    assert flows.posterior_final[0, 1] == 1.0 == flows.posterior_final.sum()


def _dense_forward_dies(chain, start, pi, horizon) -> bool:
    """Whether the dense forward chain's mass is zero at some step."""
    f = np.zeros(chain.dim)
    base = (start[0] * chain.grid.cols + start[1]) * N_ACTIONS
    f[base : base + N_ACTIONS] = pi / pi.sum()
    for _ in range(2, horizon):
        f = f @ chain.joint
        if f.sum() == 0.0:
            return True
        f = f / f.sum()
    return (f @ chain.to_state).sum() == 0.0


@settings(max_examples=300, deadline=None)
@given(
    st.tuples(st.integers(1, 5), st.integers(1, 5)),
    st.integers(0, 2**32 - 1),
    st.sampled_from(["default", "zeros", "no residue"]),
    st.sampled_from(["0", "0.5", "1", "general", "all zeros"]),
    st.sampled_from(["free", "pinned", "partial"]),
    st.integers(2, 8),
)
def test_run_flows_matches_the_dense_oracle_on_every_accepted_input(
    shape, seed, masks_kind, p_kind, start_kind, horizon
):
    rng = np.random.default_rng(seed)
    mask = rng.random(shape) < float(rng.choice([0.0, 0.2, 0.4]))
    mask[rng.integers(shape[0]), rng.integers(shape[1])] = False
    grid = GridMap.from_mask(mask)
    try:
        kernel = build_kernel(grid, _masks(masks_kind, rng))
    except KernelDegenerateError:
        return  # a free cell walled in on four sides, under "no residue"
    if p_kind == "all zeros":
        p = np.zeros((N_ACTIONS, N_ACTIONS))
    else:
        p = _p_action(p_kind, rng)
    free = free_cells(grid)
    start = free[rng.integers(len(free))]
    goals = rng.choice(len(free), min(len(free), int(rng.integers(1, 4))), replace=False)
    goal = goal_marginal([(free[k], float(rng.uniform(0.1, 1.0))) for k in goals], grid)
    pi = {
        "free": np.full(N_ACTIONS, 1.0),
        "pinned": np.eye(N_ACTIONS)[rng.integers(N_ACTIONS)],
        "partial": rng.random(N_ACTIONS) * (rng.random(N_ACTIONS) < 0.5)
        + np.eye(N_ACTIONS)[rng.integers(N_ACTIONS)],
    }[start_kind]
    chain = dense_chain(kernel, p)
    start_actions = None if start_kind == "free" else pi
    try:
        flows = run_flows(kernel, p, start, goal, horizon, start_actions)
    except DeadFlowError:
        assert _dense_forward_dies(chain, start, pi, horizon)
        return
    dense = dense_messages(chain, start, goal, horizon, start_actions)
    pairs = [
        *zip(flows.forward, dense.forward),
        *zip(flows.backward, dense.backward),
        *zip(flows.posterior, dense.posterior),
    ]
    assert len(pairs) == 3 * (horizon - 1)
    for got, want in pairs:
        assert np.abs(got.values - want).max() <= 1e-12
        assert got.is_dead or want.any()
    for name in ("forward_final", "backward_final", "posterior_final"):
        got, want = getattr(flows, name), getattr(dense, name)
        assert np.abs(got - want).max() <= 1e-12
        assert want.any() or not got.any()


def test_min_time_start_on_goal_is_one():
    grid = GridMap.empty(3, 3)
    kernel = build_kernel(grid)
    assert min_time(kernel, action_matrix(0.0), (1, 1), goal_marginal([(1, 1)], grid), 10) == 1


def test_min_time_empty_5x5_corner_to_corner():
    grid = GridMap.empty(5, 5)
    kernel = build_kernel(grid)
    assert min_time(kernel, action_matrix(0.0), (0, 0), goal_marginal([(4, 4)], grid), 100) == 5


def test_min_time_unreachable_goal():
    grid = GridMap.empty(5, 5).with_obstacles(
        [(1, 1), (1, 2), (1, 3), (2, 1), (2, 3), (3, 1), (3, 2), (3, 3)]
    )
    kernel = build_kernel(grid)
    with pytest.raises(UnreachableError):
        min_time(kernel, action_matrix(0.0), (0, 0), goal_marginal([(2, 2)], grid), 50)


def test_min_time_respects_the_bound():
    grid = GridMap.empty(6, 6)
    kernel = build_kernel(grid)
    goal = goal_marginal([(5, 5)], grid)
    with pytest.raises(UnreachableError):
        min_time(kernel, action_matrix(0.0), (0, 0), goal, 4)


def test_min_time_matches_bfs(rng):
    for _ in range(15):
        grid, start, goal_cell, d = feasible_instance(rng, 8, 8)
        kernel = build_kernel(grid)
        goal = goal_marginal([goal_cell], grid)
        assert min_time(kernel, action_matrix(0.0), start, goal, 300) == d + 1


def test_min_time_with_pinned_still_action_needs_one_extra_slice():
    grid = GridMap.empty(5, 5)
    kernel = build_kernel(grid)
    goal = goal_marginal([(4, 4)], grid)
    free = min_time(kernel, action_matrix(0.0), (0, 0), goal, 100)
    pinned = min_time(kernel, action_matrix(0.0), (0, 0), goal, 100, start_action=0)
    assert free == 5 and pinned == 6


def _dense_min_time(chain, start, goal_cell, actions) -> int | None:
    # first k at which k-1 boolean joint steps and one to_state step lead
    # from a (start, a) pair onto the goal cell, as slices: k + 1
    joint, to_state = chain.joint > 0.0, chain.to_state > 0.0
    reach = np.zeros(chain.dim, dtype=bool)
    base = (start[0] * chain.grid.cols + start[1]) * N_ACTIONS
    reach[[base + a for a in actions]] = True
    goal_index = goal_cell[0] * chain.grid.cols + goal_cell[1]
    for k in range(1, chain.dim + 1):
        if (reach @ to_state)[goal_index]:
            return k + 1
        reach = reach @ joint
    return None


@pytest.mark.parametrize("sharpness", [0.3, 0.8, 1.0 - 1e-12])
@pytest.mark.parametrize("stiffness", [0.0, 0.5, 1.0])
def test_min_time_matches_dense_oracle_support(rng, sharpness, stiffness):
    p = action_matrix(stiffness)
    for _ in range(4):
        grid = random_map(rng, 5, 5, 0.35)
        free = free_cells(grid)
        if len(free) < 2:
            continue
        k0, k1 = rng.choice(len(free), 2, replace=False)
        start, goal_cell = free[k0], free[k1]
        kernel = build_kernel(grid, default_masks(sharpness))
        chain = dense_chain(kernel, p)
        goal = goal_marginal([goal_cell], grid)
        for pinned in (None, *range(N_ACTIONS)):
            actions = range(N_ACTIONS) if pinned is None else [pinned]
            want = _dense_min_time(chain, start, goal_cell, actions)
            if want is None:
                with pytest.raises(UnreachableError):
                    min_time(kernel, p, start, goal, 1000, start_action=pinned)
            else:
                assert min_time(kernel, p, start, goal, 1000, start_action=pinned) == want


def _dense_log_backward(chain, goal, horizon, reduce=np.max) -> list[np.ndarray]:
    # max (or log-sum-exp) over successors j of log joint[i, j] +
    # message[j], with the final slice gathered from the goal through to_state
    with np.errstate(divide="ignore"):
        log_joint, log_to_state = np.log(chain.joint), np.log(chain.to_state)
        out = [reduce(log_to_state + np.log(goal.reshape(-1)), axis=1)]
    for _ in range(2, horizon):
        out.insert(0, reduce(log_joint + out[0], axis=1))
    return out


@pytest.mark.parametrize("p_kind", ["uniform", "stiff", "frozen", "general"])
def test_max_backward_flow_matches_dense_max_product(rng, p_kind):
    if p_kind == "general":
        # no lambda * I + c structure, and a forbidden switch
        p = rng.random((N_ACTIONS, N_ACTIONS))
        p[2, 5] = 0.0
        p /= p.sum(axis=1, keepdims=True)
    else:
        p = action_matrix({"uniform": 0.0, "stiff": 0.6, "frozen": 1.0}[p_kind])
    for _ in range(3):
        grid, _, goal_cell, _ = feasible_instance(rng, 4, 4)
        kernel = build_kernel(grid)
        goal = goal_marginal([goal_cell], grid)
        horizon = int(rng.integers(2, 7))
        got = log_flow(kernel, p, goal, horizon)
        want = _dense_log_backward(dense_chain(kernel, p), goal, horizon)
        _assert_log_chains_match(got, want, horizon)


def _assert_log_chains_match(got, want, horizon):
    assert len(got) == len(want) == horizon - 1
    for g, w in zip(got, want):
        g = g.reshape(-1)
        finite = np.isfinite(w)
        assert np.array_equal(np.isfinite(g), finite)
        assert np.allclose(g[finite], w[finite], rtol=0.0, atol=1e-12)


@pytest.mark.parametrize("p_kind", ["0", "0.6", "1", "general"])
def test_log_sum_product_sweep_matches_the_dense_chain(rng, p_kind):
    # the log of the unnormalized sum-product chain, -inf exactly where no
    # path reaches the goal, with two goals of very unequal weight
    p = _p_action(p_kind, rng)
    for _ in range(3):
        grid, _, goal_cell, _ = feasible_instance(rng, 4, 4)
        other = free_cells(grid)[0]
        kernel = build_kernel(grid)
        goal = goal_marginal([(goal_cell, 1.0), (other, 1e-300)], grid)
        horizon = int(rng.integers(2, 7))
        got = log_flow(kernel, p, goal, horizon, _LSE)
        chain = dense_chain(kernel, p)
        want = _dense_log_backward(chain, goal, horizon, np.logaddexp.reduce)
        _assert_log_chains_match(got, want, horizon)


@pytest.mark.parametrize("stiffness", [0.0, 0.5, 1.0])
def test_max_backward_chain_is_the_max_flow_at_min_time(rng, stiffness):
    p = action_matrix(stiffness)
    for _ in range(6):
        grid = random_map(rng, 5, 5, 0.35)
        free = free_cells(grid)
        if len(free) < 2:
            continue
        k0, k1 = rng.choice(len(free), 2, replace=False)
        start, goal = free[k0], goal_marginal([free[k1]], grid)
        kernel = build_kernel(grid)
        for pinned in (None, 0, 3):
            for t_max in (3, 1000):
                try:
                    want = min_time(kernel, p, start, goal, t_max, start_action=pinned)
                except UnreachableError as err:
                    with pytest.raises(UnreachableError, match=re.escape(str(err))):
                        max_chain(kernel, p, start, goal, t_max, pinned)
                    continue
                chain = max_chain(kernel, p, start, goal, t_max, pinned)
                assert len(chain) + 1 == want
                flow = log_flow(kernel, p, goal, want)
                assert all(np.array_equal(a, b) for a, b in zip(chain, flow))


def test_increasing_horizon_preserves_feasibility(rng):
    grid, start, goal_cell, d = feasible_instance(rng, 6, 6)
    kernel = build_kernel(grid)
    p = action_matrix(0.0)
    goal = goal_marginal([goal_cell], grid)
    for horizon in (d + 1, d + 3, d + 5):
        flows = run_flows(kernel, p, start, goal, horizon)
        assert not flows.posterior[0].is_dead


def test_initial_forward_validates_inputs():
    grid = GridMap.empty(3, 3).with_obstacles([(0, 0)])
    kernel = build_kernel(grid)
    with pytest.raises(ValueError):
        initial_forward(kernel, (0, 0))
    with pytest.raises(ValueError):
        initial_forward(kernel, (1, 1), np.zeros(N_ACTIONS))


def test_messages_match_dense_oracle_with_stiffness(rng):
    # a stiff action matrix is asymmetric under transposition, so this
    # catches action-mixing bugs the uniform matrix would hide
    worst = 0.0
    for _ in range(4):
        grid, start, goal_cell, _ = feasible_instance(rng, 4, 4)
        kernel = build_kernel(grid)
        p = action_matrix(0.7)
        goal = goal_marginal([goal_cell], grid)
        horizon = int(rng.integers(3, 7))
        flows = run_flows(kernel, p, start, goal, horizon)
        dense = dense_messages(dense_chain(kernel, p), start, goal, horizon)
        for t in range(horizon - 1):
            worst = max(worst, np.abs(flows.forward[t].values - dense.forward[t]).max())
            worst = max(worst, np.abs(flows.backward[t].values - dense.backward[t]).max())
            worst = max(worst, np.abs(flows.posterior[t].values - dense.posterior[t]).max())
    assert worst <= 1e-12


def test_messages_match_dense_oracle_with_pinned_start_action(rng):
    grid, start, goal_cell, _ = feasible_instance(rng, 4, 4)
    kernel = build_kernel(grid)
    p = action_matrix(0.3)
    goal = goal_marginal([goal_cell], grid)
    pi = np.zeros(N_ACTIONS)
    pi[5] = 1.0  # down
    flows = run_flows(kernel, p, start, goal, 5, start_actions=pi)
    dense = dense_messages(dense_chain(kernel, p), start, goal, 5, start_actions=pi)
    for t in range(4):
        assert np.abs(flows.forward[t].values - dense.forward[t]).max() <= 1e-12
        assert np.abs(flows.backward[t].values - dense.backward[t]).max() <= 1e-12


def test_partial_initial_action_distribution_matches_oracle(rng):
    grid, start, goal_cell, _ = feasible_instance(rng, 4, 4)
    kernel = build_kernel(grid)
    p = action_matrix(0.2)
    goal = goal_marginal([goal_cell], grid)
    pi = np.zeros(N_ACTIONS)
    pi[0] = 0.5
    pi[3] = 0.25
    pi[5] = 0.25
    flows = run_flows(kernel, p, start, goal, 4, start_actions=pi)
    dense = dense_messages(dense_chain(kernel, p), start, goal, 4, start_actions=pi)
    for t in range(3):
        assert np.abs(flows.forward[t].values - dense.forward[t]).max() <= 1e-12
        assert np.abs(flows.posterior[t].values - dense.posterior[t]).max() <= 1e-12
