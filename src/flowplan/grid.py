"""Grid maps, the 9-action alphabet, motion stencils, and obstacle-censored
transition kernels.

Coordinates are (row, col) with row 0 at the top, so "up" means row - 1.
Grid boundaries behave exactly like obstacles: any stencil mass that would
leave the map is censored away and the remainder renormalized.  So a
cell's stencils depend only on which cells of its 3x3 window are free, a
9-bit pattern: a kernel is gathered from a table of the censored patterns.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Mapping

import numpy as np

from .errors import KernelDegenerateError

Cell = tuple[int, int]

#: mass kept on the current cell by a directional mask, as a fraction of the
#: slack left once the main direction took its share
_STILL_FRACTION = 0.05

_SUM_TOL = 1e-12


@dataclass(frozen=True)
class Action:
    """One of the nine moves: stay put or step to an 8-neighbor."""

    index: int
    name: str
    dy: int
    dx: int

    @property
    def displacement(self) -> Cell:
        return (self.dy, self.dx)


ACTIONS: tuple[Action, ...] = (
    Action(0, "still", 0, 0),
    Action(1, "up", -1, 0),
    Action(2, "up-right", -1, 1),
    Action(3, "right", 0, 1),
    Action(4, "down-right", 1, 1),
    Action(5, "down", 1, 0),
    Action(6, "down-left", 1, -1),
    Action(7, "left", 0, -1),
    Action(8, "up-left", -1, -1),
)

STILL = ACTIONS[0]
N_ACTIONS = len(ACTIONS)

ACTION_BY_NAME = {a.name: a for a in ACTIONS}


@dataclass(frozen=True, eq=False)
class GridMap:
    """N x M binary obstacle mask; 1 marks an obstacle, 0 a free cell."""

    rows: int
    cols: int
    mask: np.ndarray

    def __post_init__(self):
        if self.rows <= 0 or self.cols <= 0:
            raise ValueError("grid dimensions must be positive")
        raw = np.asarray(self.mask)
        if raw.shape != (self.rows, self.cols):
            raise ValueError(
                f"mask shape {raw.shape} != ({self.rows}, {self.cols})"
            )
        # checked before the cast, which would wrap 256 to 0 and 0.5 or nan
        # to free cells
        if not ((raw == 0) | (raw == 1)).all():
            raise ValueError("mask cells must be 0 or 1")
        # a copy, so that freezing it leaves the caller's array writable
        mask = np.array(raw, dtype=np.uint8)
        mask.flags.writeable = False
        object.__setattr__(self, "mask", mask)

    @classmethod
    def empty(cls, rows: int, cols: int) -> "GridMap":
        return cls(rows, cols, np.zeros((rows, cols), dtype=np.uint8))

    @classmethod
    def from_mask(cls, mask) -> "GridMap":
        mask = np.asarray(mask)
        if mask.ndim != 2:
            raise ValueError(
                f"mask must have 2 dimensions, got {mask.ndim} (shape {mask.shape})"
            )
        return cls(mask.shape[0], mask.shape[1], mask)

    @property
    def free(self) -> np.ndarray:
        """Boolean array, True on free cells."""
        return self.mask == 0

    def in_bounds(self, cell: Cell) -> bool:
        i, j = cell
        return 0 <= i < self.rows and 0 <= j < self.cols

    def is_free(self, cell: Cell) -> bool:
        return self.in_bounds(cell) and self.mask[cell] == 0

    def with_obstacles(self, cells: Iterable[Cell]) -> "GridMap":
        """A copy of this map with extra cells marked as obstacles."""
        mask = self.mask.copy()
        for cell in cells:
            if not self.in_bounds(cell):
                raise ValueError(f"obstacle {cell} out of bounds")
            mask[cell] = 1
        return GridMap(self.rows, self.cols, mask)

    def __eq__(self, other) -> bool:
        if not isinstance(other, GridMap):
            return NotImplemented
        return (
            self.rows == other.rows
            and self.cols == other.cols
            and np.array_equal(self.mask, other.mask)
        )

    __hash__ = None


def default_masks(sharpness: float = 0.8) -> dict[Action, np.ndarray]:
    """Obstacle-free 3x3 transition stencils, one per action.

    A directional mask puts ``sharpness`` on the intended cell, splits the
    rest over the two neighbors flanking it, and keeps a small residue on
    the current cell so censoring can never wipe a stencil out entirely
    (except in the deterministic ``sharpness == 1`` limit).  The still mask
    is a point mass on the current cell.
    """
    if not 0.0 < sharpness <= 1.0:
        raise ValueError(f"sharpness must be in (0, 1], got {sharpness}")
    residue = _STILL_FRACTION * (1.0 - sharpness)
    side = (1.0 - sharpness - residue) / 2.0

    masks: dict[Action, np.ndarray] = {}
    still = np.zeros((3, 3))
    still[1, 1] = 1.0
    masks[STILL] = still

    ring = ACTIONS[1:]
    for k, action in enumerate(ring):
        left = ring[(k - 1) % 8]
        right = ring[(k + 1) % 8]
        m = np.zeros((3, 3))
        m[1 + action.dy, 1 + action.dx] = sharpness
        m[1 + left.dy, 1 + left.dx] += side
        m[1 + right.dy, 1 + right.dx] += side
        m[1, 1] += residue
        masks[action] = m

    for m in masks.values():
        assert abs(m.sum() - 1.0) <= _SUM_TOL
        m.flags.writeable = False
    return masks


def _check_stiffness(stiffness: float) -> None:
    """Refuse a motion stiffness outside [0, 1], nan included."""
    if not 0.0 <= stiffness <= 1.0:
        raise ValueError(f"stiffness must be in [0, 1], got {stiffness}")


def action_matrix(stiffness: float = 0.0) -> np.ndarray:
    """Row-stochastic action-to-action transition matrix.

    ``stiffness`` interpolates between a uniform switch (0, the default) and
    keeping the current heading forever (1).
    """
    _check_stiffness(stiffness)
    p = stiffness * np.eye(N_ACTIONS) + (1.0 - stiffness) / N_ACTIONS
    p.flags.writeable = False
    return p


@dataclass(frozen=True, eq=False)
class TransitionKernel:
    """Censored and renormalized per-cell, per-action transition stencils.

    ``stencils[i, j, a, u, v]`` is the probability of moving from cell
    (i, j) under action a to cell (i + u - 1, j + v - 1).  Entries aimed at
    obstacles or out of bounds are exactly zero; rows for free cells sum to
    one and rows for obstacle cells are all zero.

    Storage is offset-major: ``stencils`` is a read-only view of one
    C-contiguous (3, 3, rows, cols, N_ACTIONS) array, its
    ``.transpose(3, 4, 0, 1, 2)``, so transposing it back gives that array
    itself: nine contiguous offset planes that ``engine._shift`` multiplies
    in one call, uncopied.
    The boolean planes derived from them (``support`` and ``cell_support``)
    and their log (``log_stencils``) are cached in the same layout.  They
    are per cell, so a kernel gathered from a ``_PatternTable`` (kept with
    its per-cell index in ``_source``, not a field) gathers the table's own.
    """

    grid: GridMap
    stencils: np.ndarray  # (rows, cols, N_ACTIONS, 3, 3) view, see above

    @cached_property
    def support(self) -> np.ndarray:
        """``stencils > 0``, computed once, in the same offset-major layout."""
        return self._derived(_support)

    @cached_property
    def cell_support(self) -> np.ndarray:
        """Whether some action moves from the cell along the offset,
        ``support.any(axis=2, keepdims=True)`` of shape (rows, cols, 1, 3, 3),
        computed once, in the same offset-major layout, without ``support``.
        ``engine.min_time`` sweeps it when every (cell, action) pair of a
        cell is reached together."""
        return self._derived(_cell_support)

    @cached_property
    def log_stencils(self) -> np.ndarray:
        """``log(stencils)``, -inf on the zero entries, computed once, in the
        same offset-major layout."""
        return self._derived(_log)

    def _derived(self, compute) -> np.ndarray:
        """``compute`` of the planes, as a read-only view like ``stencils``;
        gathered from the pattern table's when this kernel came from one."""
        source = vars(self).get("_source")
        if source is not None:
            table, index = source
            return _gathered(table.derived(compute), index)
        planes = compute(self.stencils.transpose(3, 4, 0, 1, 2))
        planes.flags.writeable = False
        return planes.transpose(2, 3, 4, 0, 1)


def _support(planes: np.ndarray) -> np.ndarray:
    return planes > 0.0


def _cell_support(planes: np.ndarray) -> np.ndarray:
    # a sum of nonnegative entries is positive exactly where one of them is
    return (planes @ np.ones(N_ACTIONS) > 0.0)[..., None]


def _stack_masks(masks: Mapping[Action, np.ndarray]) -> np.ndarray:
    """The base masks as one (3, 3, N_ACTIONS) array, checked action by
    action in order."""
    arrays = [np.asarray(masks[action], dtype=float) for action in ACTIONS]
    for action, m in zip(ACTIONS, arrays):
        if m.shape != (3, 3):
            raise ValueError(f"mask for {action.name} is not 3x3")
    flat = np.stack(arrays).reshape(N_ACTIONS, 9)  # one contiguous row each
    negative = (flat < 0).any(axis=1)
    off = np.abs(flat.sum(axis=1) - 1.0) > _SUM_TOL
    for action in ACTIONS:
        if negative[action.index]:
            raise ValueError(f"mask for {action.name} has negative weights")
        if off[action.index]:
            raise ValueError(f"mask for {action.name} does not sum to 1")
    return flat.T.reshape(3, 3, N_ACTIONS)


def build_kernel(
    grid: GridMap, masks: Mapping[Action, np.ndarray] | None = None
) -> TransitionKernel:
    """Censor the base masks against obstacles/bounds and renormalize.

    Stencil entries landing on an obstacle or outside the grid are zeroed
    and the surviving entries rescaled to sum to one.  A cell's stencils
    depend only on its neighbourhood pattern (``_codes``), so each pattern
    that occurs is censored once and every cell gathers its own.  Raises
    KernelDegenerateError if a free cell loses all of its mass for some
    action, which cannot happen with the default masks below sharpness 1.
    """
    if masks is None:
        masks = default_masks()
    codes = _codes(grid.free)
    seen = np.zeros(_PATTERNS, dtype=bool)
    seen[codes] = True
    table = _PatternTable(masks, np.flatnonzero(seen))
    # each cell's pattern by its place among the patterns seen
    return table.kernel(grid, np.cumsum(seen)[codes] - 1)


#: number of 3x3 neighbourhood patterns, one bit per cell of the window
_PATTERNS = 2**9

#: bit of offset (u, v) in a pattern; entry (u, v) of cell (i, j) lands on
#: cell (i + u - 1, j + v - 1), so bit 4 is the cell itself
_BITS = np.arange(9).reshape(3, 3)


def _codes(free: np.ndarray) -> np.ndarray:
    """Each cell's neighbourhood pattern: bit ``3 * u + v`` is set when the
    target of offset (u, v) is free, the map's border counting as blocked."""
    padded = np.zeros((free.shape[0] + 2, free.shape[1] + 2), dtype=bool)
    padded[1:-1, 1:-1] = free
    # valid[u, v, i, j]: the target of offset (u, v) from (i, j) is free
    valid = np.lib.stride_tricks.sliding_window_view(padded, free.shape)
    return np.tensordot(1 << _BITS, valid, axes=2)


class _PatternTable:
    """The censored, renormalized stencils of some neighbourhood patterns,
    offset-major (3, 3, patterns, N_ACTIONS), and what kernels derive from
    them once asked for.  Each step is per cell, so a pattern gets the bits
    of a cell with that pattern.  ``starved[k, a]``: pattern k is a free
    cell that keeps no mass for action a.
    """

    def __init__(self, masks: Mapping[Action, np.ndarray], patterns: np.ndarray):
        stacked = _stack_masks(masks)[:, :, None, :]
        valid = (patterns >> _BITS[..., None]) & 1 == 1  # (3, 3, patterns)
        free = valid[1, 1]
        planes = np.multiply(stacked, valid[..., None], order="C")
        # numpy's pairwise order for one contiguous 3x3 stencil (a tree of
        # eight, then the ninth), so each row sum is bit-for-bit its
        # stencil's own sum
        p = planes.reshape((9,) + planes.shape[2:])
        sums = ((p[0] + p[1]) + (p[2] + p[3])) + ((p[4] + p[5]) + (p[6] + p[7])) + p[8]
        planes /= np.where(sums > 0.0, sums, 1.0)
        planes[:, :, ~free] = 0.0
        self.stencils = planes
        self.starved = (sums == 0.0) & free[:, None]
        self._cache = {}

    def derived(self, compute) -> np.ndarray:
        """``compute`` of the table's stencils, computed once."""
        if compute not in self._cache:
            self._cache[compute] = compute(self.stencils)
        return self._cache[compute]

    def kernel(self, grid: GridMap, index: np.ndarray) -> TransitionKernel:
        """The kernel of ``grid`` whose cell (i, j) has the stencils of
        pattern ``index[i, j]``; raises KernelDegenerateError for the first
        free cell, in row-major order, that keeps no mass for some action."""
        if self.starved.any():
            dead = np.argwhere(self.starved[index])
            if len(dead):
                i, j, a = dead[0]
                raise KernelDegenerateError(
                    f"free cell ({i}, {j}) has no remaining transition mass "
                    f"for action '{ACTIONS[a].name}'"
                )
        kernel = TransitionKernel(grid, _gathered(self.stencils, index))
        object.__setattr__(kernel, "_source", (self, index))
        return kernel


def _gathered(table: np.ndarray, index: np.ndarray) -> np.ndarray:
    """``table``'s (3, 3, patterns, k) planes gathered at ``index``, one
    pattern per cell, as a read-only (rows, cols, k, 3, 3) offset-major
    view like ``TransitionKernel.stencils``."""
    planes = np.take(table, index, axis=2)
    planes.flags.writeable = False
    return planes.transpose(2, 3, 4, 0, 1)


def _log(values: np.ndarray) -> np.ndarray:
    with np.errstate(divide="ignore"):
        return np.log(values)
