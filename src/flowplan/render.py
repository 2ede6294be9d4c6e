"""Frame renderers for message tensors.

ASCII legend (one character per cell):

    ==========  =========================================
    ``#``       obstacle
    (space)     no probability mass
    ``+``       uniform action distribution on that cell
    ``·``       most probable action is "still"
    ``^ u > n v b < p``  argmax action up, up-right, right,
                down-right, down, down-left, left, up-left
    ==========  =========================================

The pixmap mode emits a binary PPM (P6) whose blue channel is the cell
marginal scaled by the frame maximum; obstacles are mid gray and action
information is dropped.
"""

from __future__ import annotations

import numpy as np

from .engine import Box, MessageTensor
from .grid import N_ACTIONS, GridMap

#: argmax glyph per action index (0 = still, then the 8 directions)
GLYPHS = ("·", "^", "u", ">", "n", "v", "b", "<", "p")
_GLYPH_TABLE = np.array(GLYPHS)

_UNIFORM_TOL = 1e-12


def render_frame(
    tensor: MessageTensor, grid: GridMap, format: str = "ascii"
) -> bytes:
    """Render one message tensor as UTF-8 ASCII art or a P6 pixmap."""
    crop, (rows, cols) = tensor._crop, tensor._grid
    shape = (rows.stop, cols.stop, N_ACTIONS)
    if shape[:2] != grid.mask.shape:
        raise ValueError(f"tensor {shape} does not fit map {grid.mask.shape}")
    if format == "ascii":
        return _render_ascii(crop.values, grid, crop.box)
    if format == "pixmap":
        return _render_pixmap(tensor.state_marginal(), grid)
    raise ValueError(f"unknown format {format!r}")


def _render_ascii(values: np.ndarray, grid: GridMap, box: Box = np.s_[:, :]) -> bytes:
    """The frame of ``values``, a message's values on ``box``, zero elsewhere."""
    # contiguous, so that each cell's total sums its nine entries in the
    # order a sum over that cell alone would
    values = np.ascontiguousarray(values)
    totals = values.sum(axis=2)
    with np.errstate(divide="ignore", invalid="ignore"):
        p = values / totals[:, :, None]
    glyphs = _GLYPH_TABLE[p.argmax(axis=2)]
    glyphs[p.max(axis=2) - p.min(axis=2) <= _UNIFORM_TOL] = "+"
    glyphs[totals == 0.0] = " "
    chars = np.full(grid.mask.shape, " ")
    chars[box] = glyphs
    chars[grid.mask == 1] = "#"
    return ("\n".join(map("".join, chars.tolist())) + "\n").encode("utf-8")


def _render_pixmap(marginal: np.ndarray, grid: GridMap) -> bytes:
    peak = marginal.max()
    blue = np.zeros_like(marginal)
    if peak > 0.0:
        blue = np.round(255.0 * marginal / peak)
    pixels = np.zeros((grid.rows, grid.cols, 3), dtype=np.uint8)
    pixels[:, :, 2] = blue.astype(np.uint8)
    pixels[grid.mask == 1] = 128
    header = f"P6\n{grid.cols} {grid.rows}\n255\n".encode("ascii")
    return header + pixels.tobytes()
