"""Brute-force reference implementations used only for verification.

Everything here is deliberately slow and independent of the stencil
engine: messages come from explicit dense matrix products over the joint
(cell, action) space, path statistics from exhaustive trajectory
enumeration, and distances from plain breadth-first search.  The censored
kernel builder is shared with the main code; the recursions are not.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .grid import (
    ACTIONS,
    Cell,
    GridMap,
    N_ACTIONS,
    TransitionKernel,
    action_matrix,
    build_kernel,
    default_masks,
)

_DENSE_GUARD = 2500  # joint dimension cap; this is a desk-scale oracle
_ENUM_CELL_GUARD = 9
_ENUM_HORIZON_GUARD = 4


@dataclass(frozen=True, eq=False)
class DenseChain:
    """Joint-space Markov chain with explicit transition matrices.

    ``joint`` is D x D over pairs (cell, action) with D = rows*cols*9;
    ``to_state`` is D x (rows*cols) and drops the action for the final
    slice.  Row (i, j, a) of either matrix is laid out row-major.
    """

    grid: GridMap
    joint: np.ndarray
    to_state: np.ndarray

    @property
    def dim(self) -> int:
        return self.joint.shape[0]


def _joint_index(grid: GridMap, cell: Cell, action: int) -> int:
    return (cell[0] * grid.cols + cell[1]) * N_ACTIONS + action


def dense_chain(kernel: TransitionKernel, p_action: np.ndarray) -> DenseChain:
    grid = kernel.grid
    n_cells = grid.rows * grid.cols
    dim = n_cells * N_ACTIONS
    if dim > _DENSE_GUARD:
        raise ValueError(
            f"dense oracle refused: joint dimension {dim} > {_DENSE_GUARD}"
        )
    joint = np.zeros((dim, dim))
    to_state = np.zeros((dim, n_cells))
    for i in range(grid.rows):
        for j in range(grid.cols):
            for a in range(N_ACTIONS):
                row = _joint_index(grid, (i, j), a)
                stencil = kernel.stencils[i, j, a]
                for u in range(3):
                    for v in range(3):
                        w = stencil[u, v]
                        if w == 0.0:
                            continue
                        ti, tj = i + u - 1, j + v - 1
                        to_state[row, ti * grid.cols + tj] += w
                        for b in range(N_ACTIONS):
                            col = _joint_index(grid, (ti, tj), b)
                            joint[row, col] += w * p_action[a, b]
    return DenseChain(grid, joint, to_state)


@dataclass(frozen=True, eq=False)
class DenseFlows:
    """Message chain shaped like the engine's output for comparison."""

    horizon: int
    forward: tuple[np.ndarray, ...]  # (rows, cols, 9) per t = 1..T-1
    forward_final: np.ndarray
    backward: tuple[np.ndarray, ...]
    backward_final: np.ndarray
    posterior: tuple[np.ndarray, ...]
    posterior_final: np.ndarray


def dense_messages(
    chain: DenseChain,
    start_cell: Cell,
    goal: np.ndarray,
    horizon: int,
    start_actions: np.ndarray | None = None,
) -> DenseFlows:
    """Vector-matrix message chain with mass-1 normalization at every step."""
    if horizon < 2:
        raise ValueError("horizon must be at least 2")
    grid = chain.grid
    shape = (grid.rows, grid.cols, N_ACTIONS)

    goal = np.asarray(goal, dtype=float).reshape(-1)
    goal = goal / goal.sum()

    pi = (
        np.full(N_ACTIONS, 1.0 / N_ACTIONS)
        if start_actions is None
        else np.asarray(start_actions, dtype=float) / np.sum(start_actions)
    )
    f = np.zeros(chain.dim)
    base = (start_cell[0] * grid.cols + start_cell[1]) * N_ACTIONS
    f[base : base + N_ACTIONS] = pi

    forward = [f]
    for _ in range(2, horizon):
        f = forward[-1] @ chain.joint
        forward.append(f / f.sum())
    f_fin = forward[-1] @ chain.to_state
    f_fin = f_fin / f_fin.sum()

    b = chain.to_state @ goal
    backward = [b / b.sum() if b.any() else b]  # dead if nothing moves into the goal
    for _ in range(2, horizon):
        b = chain.joint @ backward[0]
        total = b.sum()
        if total > 0.0:
            b = b / total
        backward.insert(0, b)

    posteriors = []
    for fv, bv in zip(forward, backward):
        p = fv * bv
        total = p.sum()
        if total > 0.0:
            p = p / total
        posteriors.append(p)
    p_fin = f_fin * goal
    total = p_fin.sum()
    if total > 0.0:
        p_fin = p_fin / total

    return DenseFlows(
        horizon=horizon,
        forward=tuple(v.reshape(shape) for v in forward),
        forward_final=f_fin.reshape(grid.rows, grid.cols),
        backward=tuple(v.reshape(shape) for v in backward),
        backward_final=goal.reshape(grid.rows, grid.cols),
        posterior=tuple(v.reshape(shape) for v in posteriors),
        posterior_final=p_fin.reshape(grid.rows, grid.cols),
    )


def enumerate_paths(
    grid: GridMap,
    start_cell: Cell,
    goal: np.ndarray,
    horizon: int,
    sharpness: float = 0.8,
    stiffness: float = 0.0,
    start_actions: np.ndarray | None = None,
):
    """All positive-weight trajectories with their weights.

    A trajectory is ((cell, action), ..., final_cell); its weight is the
    product of the initial action probability, every action- and
    state-transition factor along the way, and the goal mass at the final
    cell.  Restricted to tiny instances by construction.
    """
    if grid.rows * grid.cols > _ENUM_CELL_GUARD:
        raise ValueError("enumeration refused: grid larger than 9 cells")
    if horizon > _ENUM_HORIZON_GUARD:
        raise ValueError("enumeration refused: horizon larger than 4")
    if horizon < 2:
        raise ValueError("horizon must be at least 2")

    kernel = build_kernel(grid, default_masks(sharpness))
    p_action = action_matrix(stiffness)
    goal = np.asarray(goal, dtype=float)
    goal = goal / goal.sum()
    pi = (
        np.full(N_ACTIONS, 1.0 / N_ACTIONS)
        if start_actions is None
        else np.asarray(start_actions, dtype=float) / np.sum(start_actions)
    )

    def successors(cell: Cell, action: int):
        stencil = kernel.stencils[cell[0], cell[1], action]
        for u in range(3):
            for v in range(3):
                w = stencil[u, v]
                if w > 0.0:
                    yield (cell[0] + u - 1, cell[1] + v - 1), w

    results: list[tuple[tuple, float]] = []

    def extend(prefix: list, weight: float, t: int):
        cell, action = prefix[-1]
        if t == horizon - 1:
            for nxt, w in successors(cell, action):
                g = goal[nxt]
                if g > 0.0:
                    results.append((tuple(prefix) + (nxt,), weight * w * g))
            return
        for nxt, w in successors(cell, action):
            for b in range(N_ACTIONS):
                pab = p_action[action, b]
                if pab > 0.0:
                    prefix.append((nxt, b))
                    extend(prefix, weight * w * pab, t + 1)
                    prefix.pop()

    for a in range(N_ACTIONS):
        if pi[a] > 0.0:
            extend([(start_cell, a)], pi[a], 1)
    return results


def enumeration_marginals(
    grid: GridMap, trajectories, horizon: int
) -> tuple[list[np.ndarray], np.ndarray]:
    """Per-slice posteriors accumulated from enumerated trajectories."""
    joint = [
        np.zeros((grid.rows, grid.cols, N_ACTIONS)) for _ in range(horizon - 1)
    ]
    final = np.zeros((grid.rows, grid.cols))
    for traj, weight in trajectories:
        for t in range(horizon - 1):
            cell, action = traj[t]
            joint[t][cell[0], cell[1], action] += weight
        final[traj[-1]] += weight
    for t in range(horizon - 1):
        total = joint[t].sum()
        if total > 0.0:
            joint[t] /= total
    total = final.sum()
    if total > 0.0:
        final /= total
    return joint, final


def bfs_distance(
    grid: GridMap, start_cell: Cell, goal_cells: Iterable[Cell]
) -> int | None:
    """8-connected shortest step count to any goal cell, None if unreachable."""
    goals = set(goal_cells)
    if not grid.is_free(start_cell):
        return None
    if start_cell in goals:
        return 0
    seen = {start_cell}
    frontier = deque([(start_cell, 0)])
    moves = [(a.dy, a.dx) for a in ACTIONS[1:]]
    while frontier:
        (i, j), d = frontier.popleft()
        for dy, dx in moves:
            nxt = (i + dy, j + dx)
            if nxt in seen or not grid.is_free(nxt):
                continue
            if nxt in goals:
                return d + 1
            seen.add(nxt)
            frontier.append((nxt, d + 1))
    return None
