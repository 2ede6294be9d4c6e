from __future__ import annotations

import math
import re
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flowplan import (
    ACTIONS,
    GridMap,
    KernelDegenerateError,
    STILL,
    TransitionKernel,
    action_matrix,
    build_kernel,
    default_masks,
    dynamic_map,
)
from flowplan import engine, multiagent
from flowplan.engine import _log
from flowplan.grid import ACTION_BY_NAME, N_ACTIONS
from flowplan.multiagent import AgentSnapshot, AgentSpec

from conftest import random_map


def test_action_alphabet_order():
    assert N_ACTIONS == 9
    names = [a.name for a in ACTIONS]
    assert names == [
        "still", "up", "up-right", "right", "down-right",
        "down", "down-left", "left", "up-left",
    ]
    assert ACTIONS[0].displacement == (0, 0)
    assert ACTION_BY_NAME["up"].displacement == (-1, 0)
    assert ACTION_BY_NAME["down-left"].displacement == (1, -1)


def test_grid_map_copies_the_callers_mask():
    a = np.zeros((2, 2), np.uint8)
    grid = GridMap.from_mask(a)
    a[0, 0] = 1  # the caller's array stays writable
    assert not grid.mask.flags.writeable
    assert grid.mask[0, 0] == 0 and grid.is_free((0, 0))


def test_default_masks_up_values():
    masks = default_masks(0.8)
    up = masks[ACTION_BY_NAME["up"]]
    assert up[0, 1] == pytest.approx(0.8)        # up
    assert up[0, 0] == pytest.approx(0.095)      # up-left
    assert up[0, 2] == pytest.approx(0.095)      # up-right
    assert up[1, 1] == pytest.approx(0.01)       # still residue
    assert up[2, :].sum() == 0.0 and up[1, 0] == 0.0 and up[1, 2] == 0.0


def test_default_masks_still_is_delta():
    for kappa in (0.3, 0.8, 1.0):
        still = default_masks(kappa)[STILL]
        expect = np.zeros((3, 3))
        expect[1, 1] = 1.0
        assert np.array_equal(still, expect)


def test_default_masks_kappa_one_is_deterministic():
    right = default_masks(1.0)[ACTION_BY_NAME["right"]]
    expect = np.zeros((3, 3))
    expect[1, 2] = 1.0
    assert np.array_equal(right, expect)


@given(st.floats(min_value=1e-6, max_value=1.0))
def test_default_masks_sum_to_one(kappa):
    for mask in default_masks(kappa).values():
        assert abs(mask.sum() - 1.0) <= 1e-12
        assert (mask >= 0).all()


@pytest.mark.parametrize("kappa", [0.0, -0.5, 1.2])
def test_default_masks_rejects_bad_sharpness(kappa):
    with pytest.raises(ValueError):
        default_masks(kappa)


def test_action_matrix_uniform_default():
    p = action_matrix(0.0)
    assert np.allclose(p, 1.0 / 9.0)


def test_action_matrix_identity_at_full_stiffness():
    assert np.array_equal(action_matrix(1.0), np.eye(9))


def test_action_matrix_half():
    p = action_matrix(0.5)
    assert p[0, 0] == pytest.approx(0.5 + 1.0 / 18.0)
    assert p[0, 1] == pytest.approx(1.0 / 18.0)
    assert np.allclose(p.sum(axis=1), 1.0)


@pytest.mark.parametrize("lam", [-0.1, 1.1])
def test_action_matrix_rejects_bad_stiffness(lam):
    with pytest.raises(ValueError):
        action_matrix(lam)


def test_censor_zeroes_and_renormalizes_two_blocked_neighbors():
    # obstacles at the up and up-right neighbors of the source cell
    grid = GridMap.empty(3, 3).with_obstacles([(0, 1), (0, 2)])
    base = np.arange(1.0, 10.0).reshape(3, 3)
    base /= base.sum()
    masks = {a: base for a in ACTIONS}
    kernel = build_kernel(grid, masks)
    stencil = kernel.stencils[1, 1, ACTION_BY_NAME["up"].index]
    blocked = base[0, 1] + base[0, 2]
    assert stencil[0, 1] == 0.0 and stencil[0, 2] == 0.0
    for u in range(3):
        for v in range(3):
            if (u, v) in ((0, 1), (0, 2)):
                continue
            assert stencil[u, v] == pytest.approx(base[u, v] / (1.0 - blocked))


def test_corner_upleft_collapses_to_still():
    kernel = build_kernel(GridMap.empty(4, 4), default_masks(0.8))
    stencil = kernel.stencils[0, 0, ACTION_BY_NAME["up-left"].index]
    expect = np.zeros((3, 3))
    expect[1, 1] = 1.0
    assert np.array_equal(stencil, expect)


def test_interior_cell_unchanged_without_obstacles():
    masks = default_masks(0.8)
    kernel = build_kernel(GridMap.empty(5, 5), masks)
    for action in ACTIONS:
        assert np.array_equal(kernel.stencils[2, 2, action.index], masks[action])


def test_censoring_idempotent_on_empty_map():
    masks = default_masks(0.6)
    kernel = build_kernel(GridMap.empty(4, 6), masks)
    for action in ACTIONS:
        assert np.array_equal(kernel.stencils[1, 2, action.index], masks[action])


def test_obstacle_source_cells_are_all_zero():
    grid = GridMap.empty(4, 4).with_obstacles([(2, 2)])
    kernel = build_kernel(grid)
    assert not kernel.stencils[2, 2].any()


def test_rows_stochastic_and_obstacle_targets_exactly_zero(rng):
    for _ in range(10):
        grid = random_map(rng, 6, 6, 0.25)
        if not grid.free.any():
            continue
        kernel = build_kernel(grid)
        sums = kernel.stencils.sum(axis=(3, 4))
        assert np.all(np.abs(sums[grid.free] - 1.0) <= 1e-12)
        # every entry whose target is blocked or out of bounds is bitwise zero
        for i in range(grid.rows):
            for j in range(grid.cols):
                for u in range(3):
                    for v in range(3):
                        ti, tj = i + u - 1, j + v - 1
                        if not grid.is_free((ti, tj)):
                            assert not kernel.stencils[i, j, :, u, v].any()


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_adding_an_obstacle_never_widens_support(seed):
    rng = np.random.default_rng(seed)
    grid = random_map(rng, 5, 5, 0.15)
    free = np.argwhere(grid.free)
    if len(free) < 2:
        return
    extra = tuple(int(v) for v in free[rng.integers(len(free))])
    denser = grid.with_obstacles([extra])
    before = build_kernel(grid).support.sum(axis=(3, 4))
    after = build_kernel(denser).support.sum(axis=(3, 4))
    assert (after <= before).all()


def _reference_stencil(grid, mask, i, j):
    """Censor one cell's 3x3 mask against the map and renormalize it."""
    if not grid.is_free((i, j)):
        return [[0.0] * 3 for _ in range(3)]
    kept = [
        [float(mask[u, v]) if grid.is_free((i + u - 1, j + v - 1)) else 0.0
         for v in range(3)]
        for u in range(3)
    ]
    total = math.fsum(w for row in kept for w in row)
    return [[w / total for w in row] for row in kept]


@pytest.mark.parametrize("sharpness", [0.3, 0.8, 0.99])
def test_stencils_are_read_only_offset_major_planes(rng, sharpness):
    masks = default_masks(sharpness)
    for _ in range(4):
        grid = random_map(rng, 5, 7, 0.3)
        kernel = build_kernel(grid, masks)
        stencils = kernel.stencils
        assert stencils.shape == (5, 7, N_ACTIONS, 3, 3)
        assert not stencils.flags.writeable
        # one C-contiguous (3, 3, rows, cols, A) array and nothing else
        planes = stencils.transpose(3, 4, 0, 1, 2)
        assert planes.flags.c_contiguous
        # the max-product sweep takes the log and keeps the layout
        with np.errstate(divide="ignore"):
            assert np.log(stencils).transpose(3, 4, 0, 1, 2).flags.c_contiguous
        assert stencils.base.nbytes == stencils.nbytes
        assert [f.name for f in fields(kernel)] == ["grid", "stencils"]
        for i in range(grid.rows):
            for j in range(grid.cols):
                for action in ACTIONS:
                    ref = _reference_stencil(grid, masks[action], i, j)
                    got = stencils[i, j, action.index]
                    for u in range(3):
                        for v in range(3):
                            if ref[u][v] == 0.0:
                                assert got[u, v] == 0.0
                            else:
                                assert math.isclose(
                                    got[u, v], ref[u][v], rel_tol=1e-14
                                )


def test_degenerate_stencil_raises():
    # sharpness 1 leaves no residue: "up" from the top row loses everything
    message = "free cell ({}) has no remaining transition mass for action 'up'"
    with pytest.raises(KernelDegenerateError, match=re.escape(message.format("0, 0"))):
        build_kernel(GridMap.empty(3, 3), default_masks(1.0))
    walled = GridMap.empty(3, 4).with_obstacles([(0, 0)])
    with pytest.raises(KernelDegenerateError, match=re.escape(message.format("0, 1"))):
        build_kernel(walled, default_masks(1.0))


def _vertical_masks() -> dict:
    # every move splits between the cells above and below, so a free cell
    # keeps no mass once both are blocked
    split = np.zeros((3, 3))
    split[0, 1] = split[2, 1] = 0.5
    still = np.zeros((3, 3))
    still[1, 1] = 1.0
    return {a: still if a == STILL else split for a in ACTIONS}


def _whole_grid_kernel(grid, masks):
    """The reference kernel: every cell of the map censored in one
    whole-grid expression, as (stencils, log_stencils), both offset-major
    (rows, cols, N_ACTIONS, 3, 3) views; raises KernelDegenerateError for
    the first free cell, in row-major order, that keeps no mass for some
    action."""
    stacked = np.stack([np.asarray(masks[a], dtype=float) for a in ACTIONS], axis=-1)
    padded = np.zeros((grid.rows + 2, grid.cols + 2), dtype=bool)
    padded[1:-1, 1:-1] = grid.free
    # valid[u, v, i, j]: the target of offset (u, v) from (i, j) is free
    valid = np.lib.stride_tricks.sliding_window_view(padded, (grid.rows, grid.cols))
    planes = np.multiply(stacked[:, :, None, None, :], valid[..., None], order="C")
    p = planes.reshape((9, grid.rows, grid.cols, N_ACTIONS))
    sums = ((p[0] + p[1]) + (p[2] + p[3])) + ((p[4] + p[5]) + (p[6] + p[7])) + p[8]
    dead = (sums == 0.0) & grid.free[..., None]
    if dead.any():
        i, j, a = np.argwhere(dead)[0]
        raise KernelDegenerateError(
            f"free cell ({i}, {j}) has no remaining transition mass for "
            f"action '{ACTIONS[a].name}'"
        )
    planes /= np.where(sums > 0.0, sums, 1.0)
    planes[:, :, ~grid.free] = 0.0
    stencils = planes.transpose(2, 3, 4, 0, 1)
    return stencils, _log(stencils)


def _assert_same_kernel(got, stencils, log_stencils):
    """``got`` holds these stencils and logs bit for bit, with the supports
    they imply, all read-only and offset-major."""
    support = stencils > 0.0
    for have, want in (
        (got.stencils, stencils),
        (got.log_stencils, log_stencils),
        (got.support, support),
        (got.cell_support, support.any(axis=2, keepdims=True)),
        (got.log_cell_stencils, log_stencils.max(axis=2, keepdims=True)),
    ):
        assert have.transpose(3, 4, 0, 1, 2).flags.c_contiguous
        assert not have.flags.writeable
        assert have.shape == want.shape
        assert have.tobytes() == want.tobytes()
    # the log of a few cells, gathered alone
    rows, cols = stencils.shape[:2]
    for box in ((slice(0, 1), slice(0, 1)), (slice(rows // 2, rows), slice(0, cols))):
        assert got.log_stencils_on(box).tobytes() == log_stencils[box].tobytes()


@st.composite
def _small_maps(draw):
    """Masks of 1 x N, N x 1 or 2-8 a side, random cells blocked."""
    kind = draw(st.integers(0, 2))  # a third are 1 x N, a third N x 1
    n = draw(st.integers(1, 9))
    rows, cols = (1, n) if kind == 0 else (n, 1) if kind == 1 else (
        draw(st.integers(2, 8)), draw(st.integers(2, 8))
    )
    return np.array(
        draw(st.lists(st.booleans(), min_size=rows * cols, max_size=rows * cols)),
        dtype=np.uint8,
    ).reshape(rows, cols)


@settings(max_examples=300, deadline=None)
@given(
    _small_maps(),
    st.one_of(st.floats(0.05, 1.0), st.just(1.0), st.just("vertical")),
)
def test_build_kernel_is_the_whole_grid_censor_byte_for_byte(mask, sharpness):
    # many cells share a neighbourhood pattern: the kernel gathers each
    # pattern's stencils, censored once
    grid = GridMap.from_mask(mask)
    masks = _vertical_masks() if sharpness == "vertical" else default_masks(sharpness)
    try:
        want = _whole_grid_kernel(grid, masks)
    except KernelDegenerateError as err:
        with pytest.raises(KernelDegenerateError, match=f"^{re.escape(str(err))}$"):
            build_kernel(grid, masks)
        return
    kernel = build_kernel(grid, masks)
    assert kernel.grid is grid
    _assert_same_kernel(kernel, *want)


def test_hand_built_kernel_takes_the_log_of_its_stencils():
    grid = GridMap.empty(3, 4).with_obstacles([(1, 2)])
    planes = build_kernel(grid).stencils.transpose(3, 4, 0, 1, 2).copy()
    planes[:, :, 0, 0] = 0.0  # no longer a stencil any pattern has
    planes[1, 1, 0, 0] = 1.0
    planes.flags.writeable = False
    stencils = planes.transpose(2, 3, 4, 0, 1)
    _assert_same_kernel(TransitionKernel(grid, stencils), stencils, _log(stencils))


@pytest.mark.parametrize("rows, stencils, why", [
    (4, np.full((4, 4, N_ACTIONS, 3, 3), np.nan), "finite and nonnegative"),
    (4, -np.full((4, 4, N_ACTIONS, 3, 3), 1 / 9), "finite and nonnegative"),
    (4, np.full((4, 4, N_ACTIONS, 3, 3), np.inf), "finite and nonnegative"),
    (4, np.ones((4, 4, N_ACTIONS)), "got (4, 4, 9)"),
    (3, np.full((4, 4, N_ACTIONS, 3, 3), 1 / 9), "got (4, 4, 9, 3, 3)"),
])
def test_hand_built_kernels_refuse_malformed_stencils(rows, stencils, why):
    # nan stencils gave a final posterior summing to nan and negative ones
    # a FlowSet; the wrong shapes failed later, inside numpy or the goal check
    with pytest.raises(ValueError, match=re.escape(why)):
        TransitionKernel(GridMap.empty(rows, rows), stencils)


def test_table_kernels_skip_the_scan_of_their_stencils(monkeypatch):
    # the table's masks were checked once: a gathered kernel is not scanned
    def scan(self):
        raise AssertionError("a table kernel scanned its stencils")

    monkeypatch.setattr(TransitionKernel, "__post_init__", scan)
    grid = GridMap.empty(5, 6).with_obstacles([(2, 2)])
    kernel = build_kernel(grid)
    assert kernel.grid is grid and kernel.stencils.shape == (5, 6, N_ACTIONS, 3, 3)
    with pytest.raises(AssertionError, match="scanned"):
        TransitionKernel(grid, kernel.stencils)


@st.composite
def _rounds(draw):
    """One agent-round on a small map: agents on its free cells, the one
    that plans, a free goal for it, the agents it sees through and whether
    arrived agents vanish."""
    mask = draw(_small_maps())
    mask[draw(st.integers(0, mask.shape[0] - 1)), draw(st.integers(0, mask.shape[1] - 1))] = 0
    free = [tuple(int(v) for v in c) for c in np.argwhere(mask == 0)]
    cells = draw(st.lists(st.sampled_from(free), min_size=1, max_size=8, unique=True))
    snapshots = {
        k + 1: AgentSnapshot(k + 1, cell, None, draw(st.booleans()))
        for k, cell in enumerate(cells)
    }
    me = draw(st.sampled_from(list(snapshots)))
    others = [a for a in snapshots if a != me]
    chase = tuple(draw(st.lists(st.sampled_from(others), max_size=3, unique=True))
                  if others else ())
    goal = draw(st.sampled_from([c for c in free if c not in cells] or cells))
    spec = AgentSpec(me, snapshots[me].cell, [goal], sharpness=draw(st.floats(0.05, 0.95)),
                     chase=chase)
    return GridMap.from_mask(mask), snapshots, spec, draw(st.booleans())


@settings(max_examples=300, deadline=None)
@given(_rounds())
def test_runner_kernel_is_a_rebuild_byte_for_byte(case):
    # on small maps agents often sit on the border, next to walls and next
    # to each other
    grid, snapshots, spec, vanish = case
    seen = []
    chain = engine._max_chain

    def recording(kernel, *args):
        seen.append(kernel)
        return chain(kernel, *args)

    runner = multiagent._runners([spec])[spec.agent_id]
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(engine, "_max_chain", recording)
        runner.plan_step(grid, snapshots, 20, np.random.default_rng(0), vanish)
    if not seen:
        return  # goal blocked or already reached: the round plans nothing
    dyn = dynamic_map(grid, snapshots, spec.agent_id, not vanish, spec.chase)
    assert seen[0].grid == dyn
    rebuilt = build_kernel(dyn, default_masks(spec.sharpness))
    _assert_same_kernel(seen[0], rebuilt.stencils, _log(rebuilt.stencils))


def test_gridmap_validation():
    with pytest.raises(ValueError):
        GridMap(2, 2, np.zeros((3, 2)))
    with pytest.raises(ValueError):
        GridMap(2, 2, np.full((2, 2), 2))
    with pytest.raises(ValueError):
        GridMap(0, 2, np.zeros((0, 2)))
    # values the uint8 cast would wrap or truncate to a free cell
    for raw in ([[256, 0]], [[0.5, 1.0]], [[math.nan, 0]]):
        with pytest.raises(ValueError, match="mask cells must be 0 or 1"):
            GridMap.from_mask(np.array(raw))


@pytest.mark.parametrize("shape", [(), (5,), (2, 3, 4)])
def test_from_mask_refuses_a_mask_without_two_dimensions(shape):
    with pytest.raises(ValueError, match=re.escape(f"got {len(shape)} (shape {shape})")):
        GridMap.from_mask(np.zeros(shape))


def test_gridmap_equality_and_immutability():
    a = GridMap.empty(3, 3)
    b = GridMap.empty(3, 3)
    assert a == b
    assert a != b.with_obstacles([(1, 1)])
    with pytest.raises(ValueError):
        a.mask[0, 0] = 1
