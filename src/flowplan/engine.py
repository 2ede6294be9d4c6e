"""Message passing over N x M x 9 state-action tensors.

Forward messages diffuse probability mass from the start instantiation,
backward messages pull it in from the goal, and posteriors are their
normalized pointwise products.  Every message is renormalized to total
mass one after each step; an all-zero ("dead") backward or posterior
tensor is a value, not an error, because callers need to observe
infeasibility and react (wait, resample, or abort).

These sum-product messages give marginals.  The max-product backward
chain (``_max_chain``, and ``_tube`` in ``_MAX``) gives instead the
log-likelihood of the best continuation from every (cell, action) pair,
which is what a decoder of the single most likely path needs (the
Viterbi recursion).  It is kept in log space, so it cannot underflow at
any horizon, and -inf marks exactly the pairs that cannot reach the goal.
Its action mix is the closed form ``max(diag + v, off + max_b v)``
(``_max_mixer``), exact for the one motion model it takes, ``action_matrix``.
Under uniform switching (diag = off) that mix gives every action of a cell
``off + max_b v``, so the runner's chain (``_max_chain``) carries one
value per cell, the max over actions, bit for bit: the max is taken
before the gather, on ``TransitionKernel.log_cell_stencils``, and only
the slice a step reads is gathered as pairs.

Every pass is one 3 x 3 stencil product and sum (``_shift``) over a
semiring, in the sense of Aji and McEliece's generalized distributive
law: (0, +, x) for the sum-product messages, the same on bools (OR, AND)
for the support ``min_time`` propagates (of cells, or of (cell, action)
pairs), and (-inf, max, +) and (-inf, log-sum-exp, +) on logs for the
max-product chain (of cells, or of pairs) and for a sum-product one that
cannot underflow.
Every flow is one recursion, ``_sweep``, that spreads the stencil per
slice from a seed: the start cell for the forward flow, the bounding box
of the goal's support for the backward ones.  Each pass, and the action
mix after it, runs on crops to its input's box grown by one cell and
clipped to the grid (the support window).  Cells outside it would only
receive the semiring's zero, so every pass is bit-identical to a
whole-grid one, and so is the mix: BLAS rounds a matmul's rows alike at
every width but one column, and a window is one column wide only on a
grid that is.

Every slice is a crop on its box (``_Crop``), the semiring's zero
elsewhere: the boolean sweeps, the decoders' chains and the public
sum-product messages, whose ``values`` places the crop on the whole grid
at each read.  The sum-product flows run ``_sweep`` through ``_flow``,
which divides each crop in place by the whole message's sum
(``_normalized``, summed in a whole-grid step's order on a zero buffer
that each flow makes at its first crop and reuses, so every message and
norm is bit-identical); each public step is one ``_flow`` pass.

The forward and backward recursions are independent until the posterior
product.  On a grid of at least ``_THREADED_CELLS`` cells ``run_flows``
runs the backward one on a worker of a one-thread
``concurrent.futures.ThreadPoolExecutor`` and joins it before the
posteriors.  numpy releases the interpreter lock inside each pass, so the
two overlap on two cores; each step is the serial one, so every array is
bit-identical.

Where only reachability or one path matters, the start bounds the sweep
from the goal: ``min_time`` grows boolean support (of cells alone if no
entry of ``p_action`` is zero) up to the first slice that reaches the
start (``_until_start``, as the runner's max-product chain does).
The decoders' backward chain (``_tube``, max-product for the greedy one,
sum-product normalized per slice for sampling) runs each slice only on
the cells a path from the start can reach by then, the tube between the
two cones.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import count, islice
from typing import Callable, Iterator

import numpy as np

from .errors import DeadFlowError, InvalidGoalError, UnreachableError
from .grid import Cell, N_ACTIONS, TransitionKernel, _log

FORWARD = "forward"
BACKWARD = "backward"
POSTERIOR = "posterior"

#: ``_shift`` runs in bands of rows whose temporaries (nine products and a
#: padded input) take about this many bytes; crowd's and the decoders'
#: windows fit in one.  The threaded flows op holds a band per thread:
#: open100 ``peak_rss_mb`` read 104.0/104.9 MB before bands (seeds 41/42),
#: 103.6/103.7 at 1 MiB, 102.3/102.5 at 256 KiB, 110.0/109.9 at 4 MiB
#: and 114.9/118.2 unbanded; below 256 KiB a 100-wide band is one row
#: and the flows op runs twice as long
_BAND_BYTES = 1 << 20

Box = tuple[slice, slice]  # (rows, cols) slices of the grid

# (zero, add, multiply); on bools the sum-product is OR and AND
_Semiring = tuple[float, Callable, Callable]
_Mix = Callable[[np.ndarray], np.ndarray]  # a per-cell mix over actions
_SUM: _Semiring = (0.0, np.add, np.multiply)
_MAX: _Semiring = (-np.inf, np.maximum, np.add)  # max-product on logs
_LSE: _Semiring = (-np.inf, np.logaddexp, np.add)  # sum-product on logs


@dataclass(frozen=True, eq=False, init=False)
class MessageTensor:
    """A single forward, backward, or posterior message at one time step,
    kept as a crop on the box of its nonzero cells, zero elsewhere (the
    whole grid for one a caller built)."""

    kind: str
    _crop: _Crop = field(repr=False)
    _grid: Box = field(repr=False)  # the whole grid

    def __init__(self, values: np.ndarray, kind: str):
        if kind not in (FORWARD, BACKWARD, POSTERIOR):
            raise ValueError(f"unknown message kind {kind!r}")
        values = np.asarray(values, dtype=float)
        if values.ndim != 3 or values.shape[2] != N_ACTIONS:
            raise ValueError(f"message values must be (rows, cols, 9): {values.shape}")
        if values.size and not 0.0 <= values.min() <= values.max() < np.inf:
            raise ValueError("message values must be finite and nonnegative")
        if values.flags.writeable or not values.flags.owndata:
            # a copy, so that freezing it leaves the caller's array writable
            # and a write through another view cannot change the message
            values = values.copy()
        values.flags.writeable = False
        grid = (slice(0, values.shape[0]), slice(0, values.shape[1]))
        crop = _Crop(grid, values, 0.0)
        vars(self).update(kind=kind, _crop=crop, _grid=grid)

    @property
    def values(self) -> np.ndarray:
        """(rows, cols, N_ACTIONS), nonnegative and read-only: the crop on
        zeros of the whole grid, a new array at each read unless it covers it."""
        values = self._crop[self._grid]
        values.flags.writeable = False
        return values

    @property
    def is_dead(self) -> bool:
        return not self._crop.values.any()

    def state_marginal(self) -> np.ndarray:
        """Mass per cell, summed over the action axis."""
        crop = self._crop
        return _Crop(crop.box, crop.values.sum(axis=2), 0.0)[self._grid]


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


def _box_of(mask: np.ndarray) -> Box:
    """Bounding box of the true cells of a nonempty 2-D mask."""
    rows = np.flatnonzero(mask.any(axis=1))
    cols = np.flatnonzero(mask.any(axis=0))
    return slice(rows[0], rows[-1] + 1), slice(cols[0], cols[-1] + 1)


def _grow(box: Box | None, kernel: TransitionKernel, radius: int = 1) -> Box:
    """``box`` grown by ``radius`` cells on every side and clipped to the
    grid (None is the whole grid).  With radius 1 this is the support
    window of a pass on a message supported in ``box``."""
    n, m = kernel.grid.rows, kernel.grid.cols
    rows, cols = box or (slice(0, n), slice(0, m))
    return (
        slice(max(rows.start - radius, 0), min(rows.stop + radius, n)),
        slice(max(cols.start - radius, 0), min(cols.stop + radius, m)),
    )


def _around(cell: Cell, radius: int, kernel: TransitionKernel) -> Box:
    """The cells within ``radius`` steps of ``cell``, clipped to the grid."""
    i, j = cell
    return _grow((slice(i, i + 1), slice(j, j + 1)), kernel, radius)


def _intersect(a: Box, b: Box) -> Box:
    """The cells in both boxes; a slice of length zero where there are none."""
    return _overlap(a[0], b[0]), _overlap(a[1], b[1])


def _overlap(x: slice, y: slice) -> slice:
    # conditional expressions, which run about twice as fast as max and min
    lo = x.start if x.start > y.start else y.start
    hi = x.stop if x.stop < y.stop else y.stop
    return slice(lo, hi if hi > lo else lo)


def _area(box: Box) -> int:
    return (box[0].stop - box[0].start) * (box[1].stop - box[1].start)


def _message(crop: np.ndarray, kind: str, box: Box, grid: Box) -> MessageTensor:
    """A crop the engine built on ``box`` of ``grid``, frozen and kept
    uncopied, as a message supported in ``box``."""
    crop.flags.writeable = False
    message = object.__new__(MessageTensor)
    vars(message).update(kind=kind, _crop=_Crop(box, crop, 0.0), _grid=grid)
    return message


def _shift(
    values: np.ndarray,
    stencils: np.ndarray,
    gather: bool,
    semiring: _Semiring = _SUM,
) -> np.ndarray:
    """Move mass one step along every stencil entry.

    ``values`` is indexed (row, col, action) by the action that drives the
    move.  The scatter (``gather=False``) pushes each cell's mass onto its
    successors; the gather pulls successor mass back onto each (cell,
    action) pair, and a length-1 action axis gathers a cells-only marginal
    onto every action.  Out-of-bounds targets carry zero stencil weight.

    A pass is one product and one reduction per band of rows, on the
    kernel's offset-major storage (``grid.TransitionKernel``), uncopied.
    A gather multiplies the stencils by a strided view of the band's input,
    padded with the semiring's zero, whose plane [u, v] is the input moved
    by offset (u, v); a scatter multiplies the sources into a zero-bordered
    buffer and views plane [u, v] moved back.  The reduction adds the nine
    terms in u-major order, and the zero terms for neighbours outside the
    window are exact, so each entry is its in-window terms' sum in that
    order.  Bands keep the temporaries near ``_BAND_BYTES``.

    ``semiring`` says what mass is and how it moves.  ``_SUM`` moves
    probability, and on ``bool`` stencils and values, which give ``out``
    its dtype, it propagates support (``TransitionKernel.support``).
    ``_MAX`` on log stencils and values (``TransitionKernel.log_stencils``)
    keeps each pair's best successor instead of the sum, -inf where there
    is none; ``_LSE`` on them keeps the log of the sum.

    Callers crop ``values`` and ``stencils`` to the pass's window, whose
    edges act as the grid's; on the support window (``_grow``) the crop
    drops only the semiring's zero: bit for bit the whole-grid pass there.
    """
    zero, add, multiply = semiring
    n, m, depth = stencils.shape[:3]
    out = np.empty((n, m, depth), np.result_type(stencils, values))
    planes = stencils.transpose(3, 4, 0, 1, 2)  # the kernel's own storage
    rows = max(1, min(n, _BAND_BYTES // (9 * (m + 2) * depth * out.itemsize)))
    if gather:  # a band's input rows and the rows around it
        buffer = np.full((rows + 2, m + 2, values.shape[2]), zero, values.dtype)
        terms = np.empty((3, 3, rows, m, depth), out.dtype)
    else:  # a band's products on its sources and the sources around it
        buffer = np.full((3, 3, rows + 2, m + 2, depth), zero, out.dtype)
    *_, r, c, a = buffer.strides
    for top in range(0, n, rows):
        bottom = min(top + rows, n)
        lo, hi = max(top - 1, 0), min(bottom + 1, n)  # the rows the band reads
        b, into = bottom - top, slice(lo - top + 1, hi - top + 1)
        if gather:  # plane [u, v] of the view is the input moved by (u, v)
            buffer[into, 1:-1] = values[lo:hi]
            if hi == bottom:  # the row below the window, kept zero
                buffer[b + 1] = zero
            moved = np.ndarray((3, 3, b, m, buffer.shape[2]), buffer.dtype, buffer,
                               0, (r, c, r, c, a))
            band = multiply(planes[:, :, top:bottom], moved, out=terms[:, :, :b])
        else:  # products land on their sources; plane [u, v] moves them back
            multiply(planes[:, :, lo:hi], values[lo:hi], out=buffer[:, :, into, 1:-1])
            if hi == bottom:
                buffer[:, :, b + 1] = zero
            su, sv = buffer.strides[:2]
            band = np.ndarray((3, 3, b, m, depth), out.dtype, buffer, 2 * (r + c),
                              (su - r, sv - c, r, c, a))
        add.reduce(band, axis=(0, 1), out=out[top:bottom])
    return out


def _normalized(crop: np.ndarray, box: Box, buffer: np.ndarray) -> float:
    """Divide ``crop``, a message's values on ``box``, in place by the
    message's sum when positive, and return the sum.  It is the sum of
    ``buffer``, whole-grid zeros that the crop is written into and erased
    from again: a whole-grid step's order, so both are bit-identical.  Each
    ``_flow`` makes its own buffer; ``run_flows`` one for its posteriors."""
    buffer[box] = crop
    total = buffer.sum()
    buffer[box] = 0.0
    if total > 0.0:
        crop /= total
    return total


def _max_mixer(p_action: np.ndarray, cells: bool = False) -> _Mix:
    """The max-product action mix, log of max over b of P[a, b] m(b) per a,
    as ``max(diag + v, off + max_b v)``: for ``grid.action_matrix``'s form
    (equal diagonal entries at least the equal off-diagonal ones), the best
    b is a or the overall best.  It reads P[0, 0] and P[0, 1] alone, so it
    takes no other matrix.  With ``cells`` it mixes M, one value per cell
    (the max over actions of v), into ``off + M``: where diag = off, every
    action's mix, as fl(off + v_a) <= fl(off + M) by monotone rounding."""
    diag, off = _log(np.asarray(p_action, dtype=float)[0, :2])
    if cells:
        return lambda v: off + v
    return lambda v: np.maximum(diag + v, off + v.max(axis=2, keepdims=True))


def _lse_mixer(p_action: np.ndarray) -> _Mix:
    """The sum-product action mix on logs: log of sum over b of P[a, b] m(b)."""
    log_p = _log(np.asarray(p_action, dtype=float))
    return lambda v: np.logaddexp.reduce(v[:, :, None, :] + log_p, axis=3)


def _sum_mixer(p_action: np.ndarray) -> _Mix:
    """The sum-product backward action mix on a slice divided by its total
    on the next pass's window (when positive), so that every pass's input
    is normalized over its window."""
    p_t = p_action.T
    return lambda v: (v / total if (total := v.sum()) > 0.0 else v) @ p_t


def _seed(message: MessageTensor, kernel: TransitionKernel) -> _Crop:
    """``message``'s crop, to seed a pass of ``kernel`` on the same grid."""
    rows, cols = message._grid
    if (rows.stop, cols.stop) != kernel.stencils.shape[:2]:
        raise ValueError(f"{message.kind} message shape does not match the grid")
    return message._crop


def _flow(
    kernel: TransitionKernel, seed: _Crop, gather: bool, mix: _Mix
) -> Iterator[tuple[_Crop, float]]:
    """The sum-product ``_sweep`` on ``kernel.stencils`` from ``seed``, each
    crop with the total it is divided by in place before the sweep resumes:
    ``_normalized`` on one whole-grid zero buffer of the crops' depth, made
    at the first crop.  A forward flow (the scatter) whose mass vanishes
    raises DeadFlowError; a backward one goes on dead."""
    buffer = None
    for crop in _sweep(kernel, seed, kernel.stencils, gather, _SUM, mix):
        if buffer is None:
            buffer = np.zeros(kernel.stencils.shape[:2] + crop.values.shape[2:])
        total = _normalized(crop.values, crop.box, buffer)
        if total == 0.0 and not gather:
            raise DeadFlowError("forward mass vanished (support on obstacles only)")
        yield crop, total


def _cells(values: np.ndarray) -> np.ndarray:  # the final slice's mix
    return values.sum(axis=2)


def forward_step(
    f_prev: MessageTensor, kernel: TransitionKernel, p_action: np.ndarray
) -> MessageTensor:
    """One forward sum-product step; output renormalized to total mass 1."""
    if f_prev.kind != FORWARD:
        raise ValueError("forward_step expects a forward message")
    p_action = _checked_actions(p_action)
    if f_prev.is_dead:
        raise DeadFlowError("forward message has no mass")
    crop, _ = next(_flow(kernel, _seed(f_prev, kernel), False, lambda v: v @ p_action))
    return _message(crop.values, FORWARD, crop.box, f_prev._grid)


def backward_step(
    b_next: MessageTensor, kernel: TransitionKernel, p_action: np.ndarray
) -> MessageTensor:
    """One backward sum-product step; an all-zero result stays a dead value."""
    p_action = _checked_actions(p_action)
    if b_next.kind != BACKWARD:
        raise ValueError("backward_step expects a backward message")
    seed = _seed(b_next, kernel)
    seed = _Crop(seed.box, seed.values @ p_action.T, 0.0)
    crop, _ = next(_flow(kernel, seed, True, _unmixed))
    return _message(crop.values, BACKWARD, crop.box, b_next._grid)


def backward_terminal(goal: np.ndarray, kernel: TransitionKernel) -> MessageTensor:
    """Backward message one step before the horizon, gathered from the goal."""
    return _backward_flow(kernel, None, goal, 2)[0]


def forward_final(f_prev: MessageTensor, kernel: TransitionKernel) -> np.ndarray:
    """Final forward cell marginal: last transition summed over actions."""
    if f_prev.kind != FORWARD:
        raise ValueError("forward_final expects a forward message")
    if f_prev.is_dead:
        raise DeadFlowError("forward message has no mass")
    final, _ = next(_flow(kernel, _seed(f_prev, kernel), False, _cells))
    return final[f_prev._grid]


def posterior(f: MessageTensor, b: MessageTensor) -> MessageTensor:
    """Normalized pointwise product; dead (all-zero) if supports are disjoint.

    The product runs on the intersection of the two crops' boxes only, the
    result's box: outside it one factor is zero.
    """
    if (f.kind, b.kind) != (FORWARD, BACKWARD):
        raise ValueError("posterior expects a forward and a backward message")
    if f._grid != b._grid:
        raise ValueError("forward/backward shapes differ")
    rows, cols = f._grid
    return _posterior(f, b, np.zeros((rows.stop, cols.stop, N_ACTIONS)))


def _posterior(f: MessageTensor, b: MessageTensor, buffer: np.ndarray) -> MessageTensor:
    """``posterior`` normalized on ``buffer`` (see ``_normalized``)."""
    box = _intersect(f._crop.box, b._crop.box)
    crop = f._crop[box] * b._crop[box]
    _normalized(crop, box, buffer)
    return _message(crop, POSTERIOR, box, f._grid)


def uniform_actions() -> np.ndarray:
    return np.full(N_ACTIONS, 1.0 / N_ACTIONS)


def _checked_goal(goal: np.ndarray, kernel: TransitionKernel) -> np.ndarray:
    goal = np.asarray(goal, dtype=float)
    grid = kernel.grid
    if goal.shape != (grid.rows, grid.cols):
        raise ValueError("goal marginal shape does not match the grid")
    with np.errstate(over="ignore", invalid="ignore"):
        total = goal.sum()
    if not abs(total) < np.inf:
        if not np.isfinite(goal).all():
            raise ValueError("goal marginal has non-finite mass")
        # finite entries whose sum overflows: scale by the largest first
        goal = goal / goal.max()
        total = goal.sum()
    if (goal < 0).any():
        raise ValueError("goal marginal has negative mass")
    if total == 0.0:
        raise InvalidGoalError("goal marginal carries no mass")
    if (goal[~grid.free] > 0).any():
        raise InvalidGoalError("goal mass placed on obstacle cells")
    normalized = goal / total
    if np.count_nonzero(normalized) < np.count_nonzero(goal):
        i, j = np.argwhere((goal > 0.0) & (normalized == 0.0))[0]
        raise InvalidGoalError(
            f"goal weight of {(int(i), int(j))} underflows to 0 against the total"
        )
    return normalized


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
    with np.errstate(over="ignore", invalid="ignore"):
        total = pi.sum()
    if (pi < 0).any() or not 0.0 < total < np.inf:
        raise ValueError("initial actions must be a distribution with a finite total")
    return pi / total


def _checked_actions(p_action: np.ndarray) -> np.ndarray:
    """``p_action`` as floats, refused unless a finite, nonnegative 9 x 9
    matrix.  All zeros is legal: a flow on it dies, which its steps report."""
    p = np.asarray(p_action, dtype=float)
    if p.shape != (N_ACTIONS, N_ACTIONS):
        raise ValueError(f"p_action must be a 9 x 9 matrix, got shape {p.shape}")
    if not 0.0 <= p.min() <= p.max() < np.inf:  # a nan propagates to both
        raise ValueError("p_action entries must be finite and nonnegative")
    return p


def initial_forward(
    kernel: TransitionKernel,
    start_cell: Cell,
    start_actions: np.ndarray | None = None,
) -> MessageTensor:
    """Start instantiation: a cell delta times an initial action distribution."""
    pi = _checked_start(start_cell, start_actions, kernel)
    box, grid = _around(start_cell, 0, kernel), _grow(None, kernel)
    return _message(pi.reshape(1, 1, N_ACTIONS), FORWARD, box, grid)


def backward_flow(
    kernel: TransitionKernel,
    p_action: np.ndarray,
    goal: np.ndarray,
    horizon: int,
) -> list[MessageTensor]:
    """Backward messages for t = 1 .. horizon-1, latest time last."""
    if horizon < 2:
        raise ValueError("horizon must be at least 2")
    return _backward_flow(kernel, _checked_actions(p_action), goal, horizon)


def _backward_flow(
    kernel: TransitionKernel,
    p_action: np.ndarray | None,
    goal: np.ndarray,
    horizon: int,
) -> list[MessageTensor]:
    """``backward_flow`` on checked actions, the body ``run_flows``' worker
    runs in place of any public step; horizon 2 reads no ``p_action``.  A
    kernel that moves nothing into the goal gives dead messages."""
    goal = _checked_goal(goal, kernel)
    box, grid = _box_of(goal > 0.0), _grow(None, kernel)
    seed = _Crop(box, goal[box][:, :, None], 0.0)
    flow = _flow(kernel, seed, True, lambda v: v @ p_action.T)
    crops = [crop for crop, _ in islice(flow, horizon - 1)]
    return [_message(c.values, BACKWARD, c.box, grid) for c in reversed(crops)]


#: grids of at least this many cells run the backward flow of ``run_flows``
#: on a second thread; below it the thread's start and the interpreter
#: lock's handoffs cost more than the overlap saves
_THREADED_CELLS = 4096


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
    inspected.  So do slices whose whole-grid normalization underflows: at
    the minimum horizon on an empty 1 x 700 corridor every slice is dead.
    At horizon 1 the start is the final slice: no joint slice and no norm,
    ``forward_final`` the start cell's delta and ``posterior_final`` its
    product with the goal, dead unless the start is on the goal.

    The two recursions are independent until the posterior product.  On a
    grid of at least ``_THREADED_CELLS`` cells the backward one
    (``_backward_flow``, never a public step) runs on the worker of a
    one-thread pool beside the forward one (numpy releases the interpreter
    lock inside each pass); every step's arithmetic is the serial run's, so
    every array is bit-identical, and errors are raised in the serial
    order, the forward's first.  The posteriors' buffers are made after
    both halves have returned.
    """
    if horizon < 1:
        raise ValueError("horizon must be at least 1")
    p_action = _checked_actions(p_action)
    goal = _checked_goal(goal, kernel)
    grid = _grow(None, kernel)
    start = initial_forward(kernel, start_cell, start_actions)
    forward, norms, backward = [start], [], []

    def forward_half() -> _Crop:
        flow = _flow(kernel, start._crop, False, lambda v: v @ p_action)
        for crop, total in islice(flow, horizon - 2):
            forward.append(_message(crop.values, FORWARD, crop.box, grid))
            norms.append(total)
        final, total = next(_flow(kernel, forward[-1]._crop, False, _cells))
        norms.append(total)
        return final

    if horizon == 1:  # the start's slice is the final one
        forward, final = [], _Crop(start._crop.box, np.ones((1, 1)), 0.0)
    elif kernel.grid.rows * kernel.grid.cols < _THREADED_CELLS:
        final = forward_half()
        backward = _backward_flow(kernel, p_action, goal, horizon)
    else:
        # imported here, so that a serial run does not pay for the import
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(1, thread_name_prefix="flowplan-backward") as pool:
            backward_half = pool.submit(_backward_flow, kernel, p_action, goal, horizon)
            final = forward_half()  # leaving the block joins the worker
        backward = backward_half.result()
    buffer, plane = (np.zeros(kernel.stencils.shape[:k]) for k in (3, 2))
    post_fin = final.values * goal[final.box]
    _normalized(post_fin, final.box, plane)
    posteriors = [_posterior(f, b, buffer) for f, b in zip(forward, backward)]

    return FlowSet(
        horizon=horizon,
        forward=tuple(forward),
        forward_final=final[grid],
        forward_norms=tuple(norms),
        backward=tuple(backward),
        backward_final=goal,
        posterior=tuple(posteriors),
        posterior_final=_Crop(final.box, post_fin, 0.0)[grid],
    )


def _max_chain(
    kernel: TransitionKernel,
    p_action: np.ndarray,
    start_cell: Cell,
    goal: np.ndarray,
    t_max: int,
    start_action: int | None = None,
) -> tuple[list[_Crop], _Crop | None]:
    """The log max-product backward chain at the horizon ``min_time`` would
    return, as crops, the slice before the goal first, and its slice 2 as
    (cell, action) pairs exact on the start's 3 x 3 (None when slice 2 is
    the goal's): what a greedy step from the start reads.  One sweep from
    the goal gives both: a finite log value is exactly the support
    ``min_time`` propagates, so the sweep stops at the first slice finite
    at the start (``_until_start``).  Its arguments and errors are those of
    ``min_time``.

    Under uniform switching (P[0, 0] = P[0, 1] > 0) the mix gives every
    action of a cell the same value, ``off + M``, with M the max over
    actions.  So the sweep carries M_j, the pairs slice B_j's max over
    actions, one value per cell: a depth-1 gather on
    ``TransitionKernel.log_cell_stencils`` from ``off + M_(j-1)``, bit for
    bit B_j's max, as max_a fl(L_a + x) = fl(max_a L_a + x) (the
    generalized distributive law, with rounding monotone).  Slice 2's pairs
    are then one gather on the start's 3 x 3 (on its 5 x 5, read inside)
    from mixed slice 3, or from the goal at horizon 3, with the log
    stencils of those cells alone (``log_stencils_on``): bit for bit the
    pairs sweep's.  Other matrices sweep the pairs.
    """
    goal, cells = _checked_start_goal(kernel, start_cell, goal, t_max)
    if goal[start_cell] > 0.0:
        return [], None
    p = np.asarray(p_action, dtype=float)
    if not p[0, 0] == p[0, 1] > 0.0:  # the pairs sweep
        sweep = _goal_sweep(kernel, p_action, goal, _MAX)
        crops = list(_until_start(sweep, kernel, start_cell, start_action, t_max))
        return crops, crops[-2] if len(crops) > 1 else None
    box = cells.box
    seed = _Crop(box, _log(goal[box])[:, :, None], -np.inf)  # as ``_goal_sweep``'s
    mix = _max_mixer(p, cells=True)
    sweep = _sweep(kernel, seed, kernel.log_cell_stencils, True, _MAX, mix)
    crops = list(_until_start(sweep, kernel, start_cell, start_action, t_max, cells))
    if len(crops) < 2:
        return crops, None
    inner, window = _around(start_cell, 1, kernel), _around(start_cell, 2, kernel)
    values = mix(crops[-3][window]) if len(crops) > 2 else seed[window]
    pairs = _shift(values, kernel.log_stencils_on(window), True, _MAX)
    return crops, _Crop(inner, pairs[_relative(inner, window)], -np.inf)


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

    One boolean sweep from the goal, stopped by ``_until_start`` as
    ``_max_chain``'s is: at the first slice that holds a start pair, after
    j gathers, it returns j + 1.  With no zero in ``p_action`` it sweeps
    cells, unmixed, on ``TransitionKernel.cell_support``, pinned start or
    not; other matrices sweep pairs, mixed by the switches they allow.
    """
    p_action = _checked_actions(p_action)
    goal, seed = _checked_start_goal(kernel, start_cell, goal, t_max)
    if goal[start_cell] > 0.0:
        return 1
    allowed = p_action > 0.0
    if allowed.all():  # the mix would reach every action of a cell: sweep the cells
        stencils, mix, cells = kernel.cell_support, _unmixed, seed
    else:
        stencils, mix, cells = kernel.support, lambda v: v @ allowed.T, None
    sweep = _sweep(kernel, seed, stencils, True, _SUM, mix)
    crops = _until_start(sweep, kernel, start_cell, start_action, t_max, cells)
    return 1 + sum(1 for _ in crops)


def _unmixed(values: np.ndarray) -> np.ndarray:
    return values


def _meets(f: _Crop, b: _Crop) -> bool:
    """Whether support crops ``f`` and ``b`` share a pair."""
    both = _intersect(f.box, b.box)
    return _area(both) > 0 and bool((f[both] & b[both]).any())


def _start_pairs(kernel: TransitionKernel, cell: Cell, action: int | None) -> _Crop:
    """The (cell, action) pairs a path may start on, as a support crop: the
    pinned action, or all nine kept as one plane."""
    pairs = np.zeros((1, 1, N_ACTIONS if action is not None else 1), bool)
    pairs[0, 0, action or 0] = True
    return _Crop(_around(cell, 0, kernel), pairs, False)


def _checked_start_goal(
    kernel: TransitionKernel, start_cell: Cell, goal: np.ndarray, t_max: int
) -> tuple[np.ndarray, _Crop]:
    """The checked goal, and its cells as a support crop on their box."""
    goal = _checked_goal(goal, kernel)
    _checked_start(start_cell, None, kernel)
    if t_max < 2:
        raise ValueError("t_max must be at least 2")
    box = _box_of(goal > 0.0)
    return goal, _Crop(box, (goal[box] > 0.0)[:, :, None], False)


@dataclass(eq=False, slots=True)
class _Crop:
    """A slice of a sweep stored on ``box`` only, ``zero`` elsewhere."""

    box: Box
    values: np.ndarray  # (box rows, box cols, depth)
    zero: float

    def __getitem__(self, cells: Box) -> np.ndarray:
        """The slice on ``cells``, a box with explicit bounds; a view of
        the stored values where ``cells`` lies inside ``box``."""
        box = self.box
        if cells == box:
            return self.values
        both = _intersect(cells, box)
        inner = self.values if both == box else self.values[_relative(both, box)]
        if both == cells:
            return inner
        rows, cols = cells
        shape = (rows.stop - rows.start, cols.stop - cols.start, *self.values.shape[2:])
        out = np.empty(shape, self.values.dtype)
        out.fill(self.zero)
        out[_relative(both, cells)] = inner
        return out


def _relative(inner: Box, outer: Box) -> Box:
    """``inner`` as slices of an array that holds the cells of ``outer``."""
    (rows, cols), i, j = inner, outer[0].start, outer[1].start
    return slice(rows.start - i, rows.stop - i), slice(cols.start - j, cols.stop - j)


def _repeats(previous: _Crop | None, sup: _Crop) -> bool:
    """Whether the boolean crop ``sup`` holds the pairs of ``previous``, a
    crop on a box inside its own, and no others."""
    return (
        previous is not None
        and np.count_nonzero(sup.values) == np.count_nonzero(previous.values)
        and np.array_equal(sup[previous.box], previous.values)
    )


def _sweep(
    kernel: TransitionKernel,
    seed: _Crop,
    stencils: np.ndarray,
    gather: bool,
    semiring: _Semiring,
    mix: _Mix,
    clip: Callable[[int], Box] | None = None,
) -> Iterator[_Crop]:
    """Passes of ``_shift`` from ``seed``, one message per pass as a crop.

    Pass k runs on the support window of its input (the seed's box or the
    previous window, grown by ``_grow``), intersected with ``clip(k)`` if
    given; its result, mixed over actions by ``mix``, is the next pass's
    input.  A scatter yields the mixed result, as a forward message is the
    move mixed to the next heading; a gather yields the pass before its
    mix, as a backward message is the gather of the mixed one after it,
    and mixes it on the next window, after padding or clipping: the padded
    copy is then freed before the pass allocates its result, which reuses
    its memory (under glibc, mixing first raised the peak RSS of a 100 x 100
    backward flow by 23 MB).  The pass and the mix are per cell, so without a clip
    every crop is exact; a clip makes the cells within one step of its edge
    too low.

    A caller may change a yielded crop's values in place before it resumes
    the sweep, as ``_flow`` normalizes them: the next pass, or a gather's
    mix, reads them as changed.
    """
    zero = semiring[0]
    crop = seed
    for k in count(1):
        window = _grow(crop.box, kernel)
        if clip is not None:
            window = _intersect(window, clip(k))
        if gather and k > 1:
            crop = _Crop(window, mix(crop[window]), zero)
        out = _shift(crop[window], stencils[window], gather, semiring)
        crop = _Crop(window, out if gather else mix(out), zero)
        yield crop


def _goal_sweep(
    kernel: TransitionKernel,
    p_action: np.ndarray,
    goal: np.ndarray,
    semiring: _Semiring,
    clip: Callable[[int], Box] | None = None,
) -> Iterator[_Crop]:
    """Backward messages in ``semiring``, the slice before the goal first:
    the ``_sweep`` of the gather from the goal's box, so that without a
    clip the k-th slice is on that box grown k times.  ``_SUM`` normalizes
    each pass's input over its window, not the grid; the others run on logs."""
    box = _box_of(goal > 0.0)
    if semiring is _SUM:
        seed, stencils, mix = goal[box], kernel.stencils, _sum_mixer(p_action)
    else:
        seed, stencils = _log(goal[box]), kernel.log_stencils
        mix = (_max_mixer if semiring is _MAX else _lse_mixer)(p_action)
    seed = _Crop(box, seed[:, :, None], semiring[0])
    return _sweep(kernel, seed, stencils, True, semiring, mix, clip)


def _tube(
    kernel: TransitionKernel,
    p_action: np.ndarray,
    goal: np.ndarray,
    horizon: int,
    start_cell: Cell,
    semiring: _Semiring,
) -> list[_Crop]:
    """The backward chain in ``semiring`` on the tube between the start
    and the goal, the chain both decoders read.

    Slice s is clipped to the cells within s steps of ``start_cell``.  Its
    gather reads one cell further out, so the slice is exact within s - 1
    steps, where a path from the start is at slice s - 1 and which holds
    every neighbour it can move to; no exact cell reads the ones nearer the
    clip's edge.  There the log semirings' entries are bit-identical to
    the unclipped ``_goal_sweep``'s, and each ``_SUM`` slice is
    ``backward_flow``'s times one positive scale: normalized over the tube,
    it does not underflow near the start on long corridors, and where it
    still does, ``_LSE`` holds the same chain as logs.  Slices are crops,
    latest time last.
    """
    goal = _checked_goal(goal, kernel)

    def clip(k: int) -> Box:  # the k-th slice of the sweep is slice horizon - k
        return _around(start_cell, horizon - k, kernel)

    sweep = _goal_sweep(kernel, p_action, goal, semiring, clip)
    return list(islice(sweep, horizon - 1))[::-1]


def _until_start(
    sweep: Iterator[_Crop],
    kernel: TransitionKernel,
    start_cell: Cell,
    start_action: int | None,
    t_max: int,
    cells: _Crop | None = None,
) -> Iterator[_Crop]:
    """Crops of an unclipped backward sweep up to the first whose support,
    its entries other than the semiring's zero, meets the start pairs.

    Raises UnreachableError once the horizon would pass ``t_max`` or the
    support stops changing without touching the start.  Each crop's window
    holds the one before it, so comparing the supports on the crops
    compares the same sets the whole-grid slices would (``_repeats``).

    Given ``cells``, the goal's cells, the sweep is one of cells from them
    (``min_time``'s on ``cell_support``, ``_max_chain``'s on
    ``log_cell_stencils``): its j-th crop M_j has the support of the
    ``any`` over actions of the (cell, action) support B_j, which is the
    gather of M_(j-1) on ``support``, and the stopping rules stay those of
    B.  M_j = M_(j-1) gives B_(j+1) = B_j, but may come one gather before
    B_j = B_(j-1); so the first repeat of M is checked on the pairs
    (``_pairs_repeat``), and if they lag, B repeats at the next gather.  A
    free start action meets B_j where M_j holds the start; a pinned one,
    where its moves from the start (its ``support``) meet M_(j-1), which is
    the goal's cells at j = 1.
    """
    # any backward support needs at most one sweep of the joint space
    hard_cap = kernel.grid.rows * kernel.grid.cols * N_ACTIONS + 1
    pinned = cells is not None and start_action is not None
    start = (_moves if pinned else _start_pairs)(kernel, start_cell, start_action)
    older = previous = None
    for gathers, crop in enumerate(sweep, start=1):
        sup = _Crop(crop.box, crop.values != crop.zero, False)
        # M_(j-1) here and M_(j-2) below are the goal's cells at j = 1 and
        # 2, before a repeat of M can clear ``cells``
        last = previous or cells
        if _repeats(previous, sup):
            if cells is None or _pairs_repeat(kernel, older or cells, previous, sup.box):
                raise UnreachableError(f"backward support reached a fixed point "
                                       f"without touching {start_cell}")
            cells = None
        yield crop
        if _meets(start, last if pinned else sup):
            return
        if gathers + 1 >= t_max or gathers > hard_cap:
            raise UnreachableError(
                f"no backward mass at {start_cell} within horizon {t_max}"
            )
        older, previous = previous, sup


def _moves(kernel: TransitionKernel, cell: Cell, action: int) -> _Crop:
    """The cells ``action`` moves to from ``cell``, as a support crop on
    the cell's 3 x 3 (``support`` of the cell and action)."""
    i, j = cell
    box = _around(cell, 1, kernel)
    stencil_box = (slice(i - 1, i + 2), slice(j - 1, j + 2))
    moves = kernel.stencils[i, j, action] > 0.0
    return _Crop(box, moves[_relative(box, stencil_box)][:, :, None], False)


def _pairs_repeat(
    kernel: TransitionKernel, older: _Crop, previous: _Crop, window: Box
) -> bool:
    """Whether B_j, the (cell, action) support gathered on ``window`` from
    the cell crop ``previous`` (M_(j-1)), holds the same pairs as B_(j-1),
    gathered on the window of ``previous`` from ``older`` (M_(j-2))."""
    support = kernel.support[window]
    inner = previous.box
    before = _shift(older[inner], support[_relative(inner, window)], True)
    after = _shift(previous[window], support, True)
    return _repeats(_Crop(inner, before, False), _Crop(window, after, False))
