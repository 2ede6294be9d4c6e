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

Both ends are used where only reachability or one path matters.
``min_time`` grows boolean support from the start and from the goal,
always on the side with the smaller window, and stops where the two
meet.  The greedy decoder's max-product chain (``_max_tube``) runs each
slice only on the cells a path from the start can reach by then, the
tube between the two cones.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from itertools import count, islice
from typing import Callable, Iterable, Iterator

import numpy as np

from .errors import DeadFlowError, InvalidGoalError, UnreachableError
from .grid import Cell, N_ACTIONS, TransitionKernel, _log

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


def _around(cell: Cell, radius: int, kernel: TransitionKernel) -> Box:
    """The cells within ``radius`` steps of ``cell``, clipped to the grid."""
    n, m = kernel.grid.rows, kernel.grid.cols
    return (
        slice(max(cell[0] - radius, 0), min(cell[0] + radius + 1, n)),
        slice(max(cell[1] - radius, 0), min(cell[1] + radius + 1, m)),
    )


def _intersect(a: Box, b: Box) -> Box:
    """The cells in both boxes; a slice of length zero where there are none."""
    out = []
    for x, y in zip(a, b):
        lo = max(x.start, y.start)
        out.append(slice(lo, max(lo, min(x.stop, y.stop))))
    return tuple(out)


def _area(box: Box) -> int:
    return (box[0].stop - box[0].start) * (box[1].stop - box[1].start)


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

    ``out`` takes the inputs' result dtype: on ``bool`` stencils and
    values ``*`` is AND and ``+=`` is OR, so the same loop propagates
    support (``TransitionKernel.support``).
    """
    out = np.zeros(stencils.shape[:3], dtype=np.result_type(stencils, values))
    crop, stencils, values = out[window], stencils[window], values[window]
    for u, v, src, dst in _offsets(*stencils.shape[:2]):
        if gather:
            crop[src] += stencils[src][..., u, v] * values[dst]
        else:
            crop[dst] += stencils[src][..., u, v] * values[src]
    return out


def _max_gather(log_values: np.ndarray, log_stencils: np.ndarray) -> np.ndarray:
    """The gather of ``_shift`` with max for sum, in log space: the best
    successor value of each (cell, action) pair, -inf where there is none.
    Callers pass both inputs cropped to a window, whose edges then act as
    the grid's; on a support window the terms this drops are
    ``max(x, -inf)``."""
    out = np.full(log_stencils.shape[:3], -np.inf)
    for u, v, src, dst in _offsets(*out.shape[:2]):
        view = out[src]
        np.maximum(view, log_stencils[src][..., u, v] + log_values[dst], out=view)
    return out


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
    """Normalized pointwise product; dead (all-zero) if supports are disjoint.

    The product runs on the intersection of the two boxes only, the
    result's box; outside it one factor is zero, and the sum still runs
    over the full array, so the result is bit-identical to a whole-grid
    product.
    """
    if f.values.shape != b.values.shape:
        raise ValueError("forward/backward shapes differ")
    whole = tuple(slice(0, k) for k in f.values.shape[:2])
    box = _intersect(f._box or whole, b._box or whole)
    out = np.zeros(f.values.shape)
    out[box] = f.values[box] * b.values[box]
    total = out.sum()
    if total > 0.0:
        out[box] /= total
    return _boxed(MessageTensor(out, POSTERIOR), box)


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
    return _boxed(MessageTensor(values, FORWARD), _around(start_cell, 0, kernel))


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
    whole = _grow(None, kernel)  # the whole grid
    sweep = islice(_max_sweep(kernel, p_action, goal), horizon - 1)
    chain = [crop[whole] for crop in sweep]
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
    whole = _grow(None, kernel)  # the whole grid
    crops = _max_chain(kernel, p_action, start_cell, goal, t_max, start_action)
    chain = [crop[whole] for crop in crops]
    chain.reverse()
    return chain


def _max_chain(
    kernel: TransitionKernel,
    p_action: np.ndarray,
    start_cell: Cell,
    goal: np.ndarray,
    t_max: int,
    start_action: int | None = None,
) -> Iterable[_LogCrop]:
    """The slices of ``max_backward_chain`` as crops, the slice before the
    goal first (the start's slice last)."""
    goal = _checked_start_goal(kernel, start_cell, goal, t_max)
    if goal[start_cell] > 0.0:
        return []
    sweep = _max_sweep(kernel, p_action, goal)
    return _until_start(sweep, kernel, start_cell, start_action, t_max)


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

    The search meets in the middle (Pohl's bidirectional search) in joint
    (cell, action) space: forward support F_i grows from the start pairs,
    backward support B_j from the goal, one move at a time on whichever
    side has the smaller window, and a path of i + j moves exists exactly
    when F_i and B_j share a pair.  Each side runs only on its window and
    the meeting is tested on the intersection of the two.  The stopping
    rules are those of a one-sided sweep of B from the goal: it raises at
    the first B_j equal to B_(j-1), a fixed point that never touched the
    start, and after the last gather ``t_max`` allows.
    """
    goal = _checked_start_goal(kernel, start_cell, goal, t_max)
    if goal[start_cell] > 0.0:
        return 1
    grid = kernel.grid
    # the most gathers a one-sided sweep makes; any backward support
    # repeats within one sweep of the joint space
    cap = min(t_max - 1, grid.rows * grid.cols * N_ACTIONS + 2)
    mix_forward, mix_backward = _support_mixers(p_action)
    support = kernel.support

    def forward_side() -> Iterator[tuple[Box, np.ndarray]]:
        # F_0, F_1, ...: pairs at the end of i moves, headings mixed;
        # stops after the first F_i equal to F_(i-1), which repeats forever
        depth = N_ACTIONS if start_action is not None else 1
        sup = np.zeros((grid.rows, grid.cols, depth), dtype=bool)
        sup[start_cell + ((start_action or 0),)] = True
        box = _around(start_cell, 0, kernel)
        yield box, sup
        while True:
            box = _grow(box, kernel)
            moved = _shift(sup, support, False, box)
            previous, sup = sup, _mixed_on(mix_forward, moved, box)
            yield box, sup
            if np.array_equal(sup[box], previous[box]):
                return

    def backward_side() -> Iterator[tuple[Box, np.ndarray]]:
        # B_1, B_2, ...: pairs that end on the goal after exactly j moves
        sup, box = (goal > 0.0)[:, :, None], _box_of(goal > 0.0)
        previous = None
        for _ in range(cap):
            box = _grow(box, kernel)
            gathered = _shift(sup, support, True, box)
            if previous is not None and np.array_equal(
                gathered[box], previous[box]
            ):
                raise UnreachableError(
                    f"backward support reached a fixed point without touching "
                    f"{start_cell}"
                )
            yield box, gathered
            previous, sup = gathered, _mixed_on(mix_backward, gathered, box)
        raise UnreachableError(
            f"no backward mass at {start_cell} within horizon {t_max}"
        )

    forward, backward = forward_side(), backward_side()
    (f_box, f), (b_box, b) = next(forward), next(backward)
    moves = 1
    while not _meets(f, f_box, b, b_box):
        if moves == cap:
            # no path within the cap: B alone decides which error it is
            for _ in backward:
                pass
        moves += 1
        step = next(forward, None) if _area(f_box) < _area(b_box) else None
        if step is None:
            b_box, b = next(backward)
        else:
            f_box, f = step
    return moves + 1


def _support_mixers(
    p_action: np.ndarray,
) -> tuple[Callable[[np.ndarray], np.ndarray], Callable[[np.ndarray], np.ndarray]]:
    """The boolean action mix, forward (a heading moved in, to the headings
    it may switch to) and backward (a heading, to those that may switch
    to it).  Without a zero entry in ``p_action`` every switch is allowed,
    an ``any`` over actions kept as one plane; other matrices take a 9 x 9
    product."""
    allowed = np.asarray(p_action) > 0.0
    if allowed.all():
        def any_action(v):
            return v.any(axis=2, keepdims=True)

        return any_action, any_action
    return (lambda v: v @ allowed), (lambda v: v @ allowed.T)


def _mixed_on(
    mix: Callable[[np.ndarray], np.ndarray], values: np.ndarray, window: Box
) -> np.ndarray:
    """``mix`` applied on ``window`` only, zero outside: exact for a
    per-cell mix of values that are zero outside ``window``."""
    crop = mix(values[window])
    out = np.zeros(values.shape[:2] + crop.shape[2:], dtype=crop.dtype)
    out[window] = crop
    return out


def _meets(f: np.ndarray, f_box: Box, b: np.ndarray, b_box: Box) -> bool:
    """Whether supports ``f`` and ``b``, zero outside their boxes, share a pair."""
    both = _intersect(f_box, b_box)
    return bool((f[both] & b[both]).any())


def _checked_start_goal(
    kernel: TransitionKernel, start_cell: Cell, goal: np.ndarray, t_max: int
) -> np.ndarray:
    goal = _checked_goal(goal, kernel)
    if not kernel.grid.is_free(start_cell):
        raise ValueError(f"start cell {start_cell} is not a free cell")
    if t_max < 2:
        raise ValueError("t_max must be at least 2")
    return goal


@dataclass(frozen=True, eq=False)
class _LogCrop:
    """A log max-product slice stored on ``box`` only, -inf elsewhere."""

    box: Box
    values: np.ndarray  # (box rows, box cols, depth)

    def __getitem__(self, cells: Box) -> np.ndarray:
        """The slice on ``cells``, a box with explicit bounds."""
        rows, cols = (s.stop - s.start for s in cells)
        out = np.full((rows, cols, self.values.shape[2]), -np.inf)
        both = _intersect(cells, self.box)
        out[_relative(both, cells)] = self.values[_relative(both, self.box)]
        return out


def _relative(inner: Box, outer: Box) -> Box:
    """``inner`` as slices of an array that holds the cells of ``outer``."""
    return tuple(
        slice(i.start - o.start, i.stop - o.start) for i, o in zip(inner, outer)
    )


def _max_sweep(
    kernel: TransitionKernel,
    p_action: np.ndarray,
    goal: np.ndarray,
    clip: Callable[[int], Box] | None = None,
) -> Iterator[_LogCrop]:
    """Log max-product backward messages, the slice before the goal first.

    The k-th slice runs on the goal's box grown k times (its support
    window), intersected with ``clip(k)`` if given, and is stored as a crop
    on that window.  The gather, the max and the mix are per cell, so
    without a clip every slice is exact; a clip makes the cells within one
    step of its edge too low.
    """
    log_stencils = kernel.log_stencils
    mix = _max_mixer(p_action)
    box = _box_of(goal > 0.0)
    values = _LogCrop(box, _log(goal[box])[:, :, None])
    for k in count(1):
        box = _grow(box, kernel)
        window = box if clip is None else _intersect(box, clip(k))
        out = _max_gather(values[window], log_stencils[window])
        yield _LogCrop(window, out)
        values = _LogCrop(window, mix(out))


def _max_tube(
    kernel: TransitionKernel,
    p_action: np.ndarray,
    goal: np.ndarray,
    horizon: int,
    start_cell: Cell,
) -> list[_LogCrop]:
    """``max_backward_flow`` on the tube between the start and the goal.

    Slice s is clipped to the cells within s steps of ``start_cell``.  Its
    gather reads one cell further out, so the slice is exact within s - 1
    steps, where a path from the start is at slice s - 1 and which holds
    every neighbour it can move to; no exact cell reads the ones nearer the
    clip's edge.  Every exact entry is bit-identical to
    ``max_backward_flow``.  Slices are crops, latest time last.
    """
    goal = _checked_goal(goal, kernel)

    def clip(k: int) -> Box:  # the k-th slice of the sweep is slice horizon - k
        return _around(start_cell, horizon - k, kernel)

    chain = list(islice(_max_sweep(kernel, p_action, goal, clip), horizon - 1))
    chain.reverse()
    return chain


def _until_start(
    sweep: Iterator[_LogCrop],
    kernel: TransitionKernel,
    start_cell: Cell,
    start_action: int | None,
    t_max: int,
) -> Iterator[_LogCrop]:
    """Crops of an unclipped log backward sweep up to the first finite at
    the start.

    Raises UnreachableError once the horizon would pass ``t_max`` or the
    finite support stops changing without touching the start.  Each crop's
    window holds the one before it, so the previous support, padded into
    the new window, is compared with the new one: the same sets the
    whole-grid slices would compare.
    """
    # any backward support needs at most one sweep of the joint space
    hard_cap = kernel.grid.rows * kernel.grid.cols * N_ACTIONS + 1
    i, j = start_cell
    previous = None
    for gathers, crop in enumerate(sweep, start=1):
        sup = np.isfinite(crop.values)
        if previous is not None:
            padded = np.zeros_like(sup)
            padded[_relative(previous[0], crop.box)] = previous[1]
            if np.array_equal(sup, padded):
                raise UnreachableError(
                    f"backward support reached a fixed point without touching "
                    f"{start_cell}"
                )
        yield crop
        rows, cols = crop.box
        if rows.start <= i < rows.stop and cols.start <= j < cols.stop:
            row = sup[i - rows.start, j - cols.start]
            if row.any() if start_action is None else row[start_action]:
                return
        if gathers + 1 >= t_max or gathers > hard_cap:
            raise UnreachableError(
                f"no backward mass at {start_cell} within horizon {t_max}"
            )
        previous = crop.box, sup
