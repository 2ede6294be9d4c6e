"""Message passing over N x M x 9 state-action tensors.

Forward messages diffuse probability mass from the start instantiation,
backward messages pull it in from the goal, and posteriors are their
normalized pointwise products.  Every message is renormalized to total
mass one after each step; an all-zero ("dead") backward or posterior
tensor is a value, not an error, because callers need to observe
infeasibility and react (wait, resample, or abort).

These sum-product messages give marginals.  The max-product backward
chain (``max_backward_flow``, ``max_backward_chain``) gives instead the
log-likelihood of the best continuation from every (cell, action) pair,
which is what a decoder of the single most likely path needs (the
Viterbi recursion).  It is kept in log space, so it cannot underflow at
any horizon, and -inf marks exactly the pairs that cannot reach the goal.

Every sweep spreads one 3 x 3 stencil per slice from a seed: the start
cell for the forward flow, the bounding box of the goal's support for
the backward ones.  A message the engine makes carries the bounding box
of its support, and each stencil pass runs only on its input's box grown
by one cell and clipped to the grid (the support window), which becomes
the whole grid once it reaches every edge.  Cells outside the window
would only receive +0.0 (or ``max(x, -inf)``), and normalizing sums still
run over the full arrays, so every result is bit-identical to a
whole-grid pass.  A tensor built by a caller has no box and is treated as
whole-grid.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from itertools import islice
from typing import Callable, Iterator

import numpy as np

from .errors import DeadFlowError, InvalidGoalError, UnreachableError
from .grid import Cell, N_ACTIONS, TransitionKernel

FORWARD = "forward"
BACKWARD = "backward"
POSTERIOR = "posterior"

_OFFSETS = (-1, 0, 1)

Box = tuple[slice, slice]  # (rows, cols) slices of the grid
_WHOLE: Box = (slice(None), slice(None))


@dataclass(frozen=True, eq=False)
class MessageTensor:
    """A single forward, backward, or posterior message at one time step."""

    values: np.ndarray  # (rows, cols, N_ACTIONS), nonnegative
    kind: str
    # bounding box of the nonzero cells, set by the engine; None = whole grid
    _box: Box | None = field(default=None, init=False, repr=False)

    def __post_init__(self):
        if self.kind not in (FORWARD, BACKWARD, POSTERIOR):
            raise ValueError(f"unknown message kind {self.kind!r}")
        values = np.asarray(self.values, dtype=float)
        values.flags.writeable = False
        object.__setattr__(self, "values", values)

    @property
    def is_dead(self) -> bool:
        return not self.values.any()

    def state_marginal(self) -> np.ndarray:
        """Mass per cell, summed over the action axis."""
        return self.values.sum(axis=2)


@dataclass(frozen=True, eq=False)
class FlowSet:
    """Forward, backward, and posterior messages over a full horizon.

    Joint state-action tensors cover t = 1 .. T-1; the final slice only
    carries states, so it is stored as three separate cell marginals.
    ``forward_norms`` records the divisor applied when normalizing each
    forward message (t = 2 .. T), which lets callers reconstruct the
    unnormalized total mass.
    """

    horizon: int
    forward: tuple[MessageTensor, ...]
    forward_final: np.ndarray
    forward_norms: tuple[float, ...]
    backward: tuple[MessageTensor, ...]
    backward_final: np.ndarray
    posterior: tuple[MessageTensor, ...]
    posterior_final: np.ndarray


@lru_cache(maxsize=256)
def _axis_offsets(n: int) -> tuple:
    # per offset d: a source range and the same range shifted by d, in [0, n)
    return tuple(
        (slice(max(0, -d), n - max(0, d)), slice(max(0, d), n + min(0, d)))
        for d in _OFFSETS
    )


def _offsets(n: int, m: int) -> Iterator[tuple]:
    """(u, v, source, target) for the 9 stencil offsets on an n x m window;
    source and target are (rows, cols) slice pairs shifted by the offset.
    Only the three slice pairs per axis length are cached, so windows of
    every shape share a few small tables."""
    cols = _axis_offsets(m)
    for u, (rs, rd) in enumerate(_axis_offsets(n)):
        for v, (cs, cd) in enumerate(cols):
            yield u, v, (rs, cs), (rd, cd)


def _box_of(mask: np.ndarray) -> Box:
    """Bounding box of the true cells of a nonempty 2-D mask."""
    rows = np.flatnonzero(mask.any(axis=1))
    cols = np.flatnonzero(mask.any(axis=0))
    return slice(rows[0], rows[-1] + 1), slice(cols[0], cols[-1] + 1)


def _grow(box: Box | None, kernel: TransitionKernel) -> Box:
    """The support window of a pass on a message supported in ``box``:
    the box grown by one cell on every side, clipped to the grid."""
    n, m = kernel.grid.rows, kernel.grid.cols
    rows, cols = box or (slice(0, n), slice(0, m))
    return (
        slice(max(rows.start - 1, 0), min(rows.stop + 1, n)),
        slice(max(cols.start - 1, 0), min(cols.stop + 1, m)),
    )


def _boxed(message: MessageTensor, box: Box) -> MessageTensor:
    object.__setattr__(message, "_box", box)
    return message


def _shift(
    values: np.ndarray, stencils: np.ndarray, gather: bool, window: Box = _WHOLE
) -> np.ndarray:
    """Move mass one step along every stencil entry.

    ``values`` is indexed (row, col, action) by the action that drives the
    move.  The scatter (``gather=False``) pushes each cell's mass onto its
    successors; the gather pulls successor mass back onto each (cell,
    action) pair, and a length-1 action axis gathers a cells-only marginal
    onto every action.  Out-of-bounds targets carry zero stencil weight, so
    clipped slices are exact.  The kernel stores its stencils offset-major
    (see ``grid.TransitionKernel``), so ``stencils[..., u, v]`` is one
    contiguous plane and each offset's pass reads it in order.

    The pass runs on ``window`` only, the support window of ``values``
    (see ``_grow``): ``out``, ``stencils`` and ``values`` are cropped to
    it and the window's edges act as the grid's.  Every term this drops
    is a zero value times a finite weight, so the result is bit-identical
    to the whole-grid pass, and zero outside the window.
    """
    out = np.zeros(stencils.shape[:3])
    crop, stencils, values = out[window], stencils[window], values[window]
    for u, v, src, dst in _offsets(*stencils.shape[:2]):
        if gather:
            crop[src] += stencils[src][..., u, v] * values[dst]
        else:
            crop[dst] += stencils[src][..., u, v] * values[src]
    return out


def _max_gather(
    log_values: np.ndarray, log_stencils: np.ndarray, window: Box
) -> np.ndarray:
    """The gather of ``_shift`` with max for sum, in log space: the best
    successor value of each (cell, action) pair, -inf where there is none.
    It runs on ``window`` as ``_shift`` does; the terms it drops are
    ``max(x, -inf)``."""
    out = np.full(log_stencils.shape[:3], -np.inf)
    crop, stencils, values = out[window], log_stencils[window], log_values[window]
    for u, v, src, dst in _offsets(*crop.shape[:2]):
        view = crop[src]
        np.maximum(view, stencils[src][..., u, v] + values[dst], out=view)
    return out


def _log(values: np.ndarray) -> np.ndarray:
    with np.errstate(divide="ignore"):
        return np.log(values)


def _max_mixer(p_action: np.ndarray) -> Callable[[np.ndarray], np.ndarray]:
    """The max-product action mix: log of max over b of P[a, b] m(b), per a.

    For ``grid.action_matrix``'s form (equal diagonal entries at least as
    large as the equal off-diagonal ones) the best b is a itself or the
    overall best, which avoids a 9 x 9 product per cell.
    """
    log_p = _log(np.asarray(p_action, dtype=float))
    diag, off = log_p[0, 0], log_p[0, 1]
    is_off = ~np.eye(N_ACTIONS, dtype=bool)
    equal = (log_p.diagonal() == diag).all() and (log_p[is_off] == off).all()
    if equal and diag >= off:
        return lambda v: np.maximum(diag + v, off + v.max(axis=2, keepdims=True))
    return lambda v: (v[:, :, None, :] + log_p).max(axis=3)


def _forward_raw(
    f_prev: MessageTensor, kernel: TransitionKernel, p_action: np.ndarray
) -> tuple[np.ndarray, Box]:
    window = _grow(f_prev._box, kernel)
    moved = _shift(f_prev.values, kernel.stencils, False, window)
    return moved @ p_action, window  # mix over the previous action axis


def forward_step(
    f_prev: MessageTensor, kernel: TransitionKernel, p_action: np.ndarray
) -> MessageTensor:
    """One forward sum-product step; output renormalized to total mass 1."""
    if f_prev.kind != FORWARD:
        raise ValueError("forward_step expects a forward message")
    if f_prev.is_dead:
        raise DeadFlowError("forward message has no mass")
    out, window = _forward_raw(f_prev, kernel, p_action)
    total = out.sum()
    if total == 0.0:
        raise DeadFlowError("forward mass vanished (support on obstacles only)")
    return _boxed(MessageTensor(out / total, FORWARD), window)


def backward_step(
    b_next: MessageTensor, kernel: TransitionKernel, p_action: np.ndarray
) -> MessageTensor:
    """One backward sum-product step; an all-zero result stays a dead value."""
    if b_next.kind != BACKWARD:
        raise ValueError("backward_step expects a backward message")
    window = _grow(b_next._box, kernel)
    mixed = b_next.values @ p_action.T
    out = _shift(mixed, kernel.stencils, True, window)
    total = out.sum()
    if total > 0.0:
        out /= total
    return _boxed(MessageTensor(out, BACKWARD), window)


def backward_terminal(
    goal: np.ndarray, kernel: TransitionKernel
) -> MessageTensor:
    """Backward message one step before the horizon, gathered from the goal."""
    goal = _checked_goal(goal, kernel)
    window = _grow(_box_of(goal > 0.0), kernel)
    out = _shift(goal[:, :, None], kernel.stencils, True, window)
    total = out.sum()
    if total == 0.0:
        raise InvalidGoalError("goal mass sits entirely on obstacle cells")
    return _boxed(MessageTensor(out / total, BACKWARD), window)


def forward_final(
    f_prev: MessageTensor, kernel: TransitionKernel
) -> np.ndarray:
    """Final forward cell marginal: last transition summed over actions."""
    if f_prev.is_dead:
        raise DeadFlowError("forward message has no mass")
    window = _grow(f_prev._box, kernel)
    out = _shift(f_prev.values, kernel.stencils, False, window).sum(axis=2)
    total = out.sum()
    if total == 0.0:
        raise DeadFlowError("forward mass vanished (support on obstacles only)")
    return out / total


def posterior(f: MessageTensor, b: MessageTensor) -> MessageTensor:
    """Normalized pointwise product; dead (all-zero) if supports are disjoint."""
    if f.values.shape != b.values.shape:
        raise ValueError("forward/backward shapes differ")
    out = f.values * b.values
    total = out.sum()
    if total > 0.0:
        out = out / total
    return MessageTensor(out, POSTERIOR)


def uniform_actions() -> np.ndarray:
    return np.full(N_ACTIONS, 1.0 / N_ACTIONS)


def _checked_goal(goal: np.ndarray, kernel: TransitionKernel) -> np.ndarray:
    goal = np.asarray(goal, dtype=float)
    grid = kernel.grid
    if goal.shape != (grid.rows, grid.cols):
        raise ValueError("goal marginal shape does not match the grid")
    if (goal < 0).any():
        raise ValueError("goal marginal has negative mass")
    total = goal.sum()
    if total == 0.0:
        raise InvalidGoalError("goal marginal carries no mass")
    if (goal[~grid.free] > 0).any():
        raise InvalidGoalError("goal mass placed on obstacle cells")
    return goal / total


def _checked_start(
    start_cell: Cell, start_actions: np.ndarray | None, kernel: TransitionKernel
) -> np.ndarray:
    if not kernel.grid.is_free(start_cell):
        raise ValueError(f"start cell {start_cell} is not a free cell")
    if start_actions is None:
        return uniform_actions()
    pi = np.asarray(start_actions, dtype=float)
    if pi.shape != (N_ACTIONS,):
        raise ValueError("initial action distribution must have 9 entries")
    if (pi < 0).any() or pi.sum() == 0.0:
        raise ValueError("initial action distribution must be a distribution")
    return pi / pi.sum()


def initial_forward(
    kernel: TransitionKernel,
    start_cell: Cell,
    start_actions: np.ndarray | None = None,
) -> MessageTensor:
    """Start instantiation: a cell delta times an initial action distribution."""
    pi = _checked_start(start_cell, start_actions, kernel)
    grid = kernel.grid
    values = np.zeros((grid.rows, grid.cols, N_ACTIONS))
    values[start_cell[0], start_cell[1], :] = pi
    box = tuple(slice(k, k + 1) for k in start_cell)
    return _boxed(MessageTensor(values, FORWARD), box)


def backward_flow(
    kernel: TransitionKernel,
    p_action: np.ndarray,
    goal: np.ndarray,
    horizon: int,
) -> list[MessageTensor]:
    """Backward messages for t = 1 .. horizon-1, latest time last."""
    if horizon < 2:
        raise ValueError("horizon must be at least 2")
    chain = [backward_terminal(goal, kernel)]
    for _ in range(horizon - 2):
        chain.append(backward_step(chain[-1], kernel, p_action))
    chain.reverse()
    return chain


def run_flows(
    kernel: TransitionKernel,
    p_action: np.ndarray,
    start_cell: Cell,
    goal: np.ndarray,
    horizon: int,
    start_actions: np.ndarray | None = None,
) -> FlowSet:
    """Full forward/backward/posterior flow for a fixed horizon.

    The start is instantiated as a cell delta with the given (default
    uniform) initial action distribution, the goal as a cell marginal at
    the final slice.  Posteriors with disjoint forward/backward support
    come back dead rather than raising, so infeasible horizons can be
    inspected.
    """
    if horizon < 2:
        raise ValueError("horizon must be at least 2")
    goal = _checked_goal(goal, kernel)

    forward = [initial_forward(kernel, start_cell, start_actions)]
    norms: list[float] = []
    for _ in range(2, horizon):
        raw, window = _forward_raw(forward[-1], kernel, p_action)
        total = raw.sum()
        if total == 0.0:
            raise DeadFlowError("forward mass vanished")
        norms.append(total)
        forward.append(_boxed(MessageTensor(raw / total, FORWARD), window))
    window = _grow(forward[-1]._box, kernel)
    final_raw = _shift(forward[-1].values, kernel.stencils, False, window)
    final_raw = final_raw.sum(axis=2)
    final_total = final_raw.sum()
    if final_total == 0.0:
        raise DeadFlowError("forward mass vanished at the final slice")
    norms.append(final_total)
    forward_fin = final_raw / final_total

    backward = backward_flow(kernel, p_action, goal, horizon)

    posteriors = [posterior(f, b) for f, b in zip(forward, backward)]
    post_fin = forward_fin * goal
    total = post_fin.sum()
    if total > 0.0:
        post_fin = post_fin / total

    return FlowSet(
        horizon=horizon,
        forward=tuple(forward),
        forward_final=forward_fin,
        forward_norms=tuple(norms),
        backward=tuple(backward),
        backward_final=goal,
        posterior=tuple(posteriors),
        posterior_final=post_fin,
    )


def max_backward_flow(
    kernel: TransitionKernel,
    p_action: np.ndarray,
    goal: np.ndarray,
    horizon: int,
) -> list[np.ndarray]:
    """Log max-product backward messages for t = 1 .. horizon-1, latest last.

    Entry (i, j, a) at slice t is the log-likelihood of the best way to
    finish from cell (i, j) with action a at slice t, the goal weight of
    the final cell included; -inf where the goal cannot be reached.
    """
    if horizon < 2:
        raise ValueError("horizon must be at least 2")
    goal = _checked_goal(goal, kernel)
    chain = list(islice(_max_sweep(kernel, p_action, goal), horizon - 1))
    chain.reverse()
    return chain


def max_backward_chain(
    kernel: TransitionKernel,
    p_action: np.ndarray,
    start_cell: Cell,
    goal: np.ndarray,
    t_max: int,
    start_action: int | None = None,
) -> list[np.ndarray]:
    """``max_backward_flow`` at the horizon ``min_time`` would return.

    One sweep outward from the goal gives both: a finite log value is
    exactly the support ``min_time`` propagates, so the sweep stops at the
    first slice that is finite at the start.  ``len(chain) + 1`` is the
    minimum time (an empty chain when the start is on the goal), and the
    arguments and errors are those of ``min_time``.
    """
    goal = _checked_start_goal(kernel, start_cell, goal, t_max)
    if goal[start_cell] > 0.0:
        return []
    sweep = _max_sweep(kernel, p_action, goal)
    chain = list(
        _until_start(sweep, np.isfinite, kernel, start_cell, start_action, t_max)
    )
    chain.reverse()
    return chain


def min_time(
    kernel: TransitionKernel,
    p_action: np.ndarray,
    start_cell: Cell,
    goal: np.ndarray,
    t_max: int,
    start_action: int | None = None,
) -> int:
    """Smallest horizon whose backward flow puts mass on the start cell.

    Counted in time slices: a start already on the goal needs 1.  By
    default any initial action counts (backward mass summed over the
    action axis); passing ``start_action`` requires mass on that specific
    (cell, action) pair instead.  Support is propagated as booleans, not
    floats, so long horizons cannot underflow into false negatives.
    Raises UnreachableError when no horizon up to ``t_max`` works.
    """
    goal = _checked_start_goal(kernel, start_cell, goal, t_max)
    if goal[start_cell] > 0.0:
        return 1

    def support_sweep() -> Iterator[np.ndarray]:
        # 0/1 inputs keep every product of positive weights far above the
        # underflow range, so "> 0" after each step is exactly the support
        sup, window = (goal > 0.0)[:, :, None], _box_of(goal > 0.0)
        while True:
            window = _grow(window, kernel)
            sup = _shift(sup, kernel.stencils, True, window) > 0.0
            yield sup
            sup = sup @ p_action.T

    sweep = _until_start(
        support_sweep(), lambda sup: sup, kernel, start_cell, start_action, t_max
    )
    return 1 + sum(1 for _ in sweep)


def _checked_start_goal(
    kernel: TransitionKernel, start_cell: Cell, goal: np.ndarray, t_max: int
) -> np.ndarray:
    goal = _checked_goal(goal, kernel)
    if not kernel.grid.is_free(start_cell):
        raise ValueError(f"start cell {start_cell} is not a free cell")
    if t_max < 2:
        raise ValueError("t_max must be at least 2")
    return goal


def _max_sweep(
    kernel: TransitionKernel, p_action: np.ndarray, goal: np.ndarray
) -> Iterator[np.ndarray]:
    """Log max-product backward messages, the slice before the goal first."""
    log_stencils = _log(kernel.stencils)  # a ufunc keeps the planes contiguous
    mix = _max_mixer(p_action)
    values, window = _log(goal)[:, :, None], _box_of(goal > 0.0)
    while True:
        window = _grow(window, kernel)
        values = _max_gather(values, log_stencils, window)
        yield values
        values = mix(values)


def _until_start(
    sweep: Iterator[np.ndarray],
    support: Callable[[np.ndarray], np.ndarray],
    kernel: TransitionKernel,
    start_cell: Cell,
    start_action: int | None,
    t_max: int,
) -> Iterator[np.ndarray]:
    """Slices of a backward sweep up to the first with support at the start.

    ``support`` maps a slice to its boolean support.  Raises
    UnreachableError once the horizon would pass ``t_max`` or the support
    stops changing without touching the start.
    """
    # any backward support needs at most one sweep of the joint space
    hard_cap = kernel.grid.rows * kernel.grid.cols * N_ACTIONS + 1
    previous = None
    for gathers, values in enumerate(sweep, start=1):
        sup = support(values)
        if previous is not None and np.array_equal(sup, previous):
            raise UnreachableError(
                f"backward support reached a fixed point without touching "
                f"{start_cell}"
            )
        yield values
        row = sup[start_cell]
        if row.any() if start_action is None else row[start_action]:
            return
        if gathers + 1 >= t_max or gathers > hard_cap:
            raise UnreachableError(
                f"no backward mass at {start_cell} within horizon {t_max}"
            )
        previous = sup
