"""Path extraction on top of the message-passing engine.

Both decoders precompute one backward chain, on the tube of cells a path
from the start can reach by each slice (``engine._tube``), then walk the
horizon forward: at each slice they restart the forward message as a
delta on the committed (cell, action) pair and score every next pair on
its 3 x 3 neighbourhood by that delta's move times the chain.  The move
is the engine's forward step on the transition kernel cropped to that
neighbourhood, the only cells it reaches, not on the whole grid.  The greedy
planner reads the log-domain max-product chain and commits the argmax.
This is the Viterbi decoder, so the committed path is a single most
likely trajectory, not a sequence of marginal argmaxes.  ``sample_path``
reads the sum-product chain and draws from the posterior instead, which
turns the planner into a generator of plausible paths.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import fsum, inf, isfinite, log
from typing import MutableSequence, Sequence

import numpy as np

from . import engine
from .engine import Box
from .errors import InvalidGoalError, NoFeasiblePathError
from .grid import (
    Action,
    Cell,
    GridMap,
    N_ACTIONS,
    STILL,
    TransitionKernel,
    _check_stiffness,
    _unscanned,
    action_matrix,
    build_kernel,
    default_masks,
)

POLICY_ABORT = "abort"
POLICY_WAIT = "wait"
POLICY_SAMPLE = "sample"
POLICIES = (POLICY_ABORT, POLICY_WAIT, POLICY_SAMPLE)

GoalSpec = Sequence[tuple[Cell, float] | Cell]


def goal_marginal(goals: GoalSpec, grid: GridMap) -> np.ndarray:
    """Cell marginal with normalized weight on each goal, zero elsewhere."""
    pairs = _normalized_goals(goals)
    out = np.zeros((grid.rows, grid.cols))
    for cell, weight in pairs:
        _check_free(cell, grid, f"goal {cell}")
        out[cell] += weight
    return out


def _check_free(cell: Cell, grid: GridMap, what: str, error=InvalidGoalError) -> None:
    """Refuse ``what`` (a start, goal or step) unless ``cell`` is a free
    cell of ``grid``: it is "off the R x C grid" or "on an obstacle"."""
    if not grid.in_bounds(cell):
        raise error(f"{what} is off the {grid.rows}x{grid.cols} grid")
    if not grid.is_free(cell):
        raise error(f"{what} is on an obstacle")


def _normalized_goals(goals: GoalSpec) -> tuple[tuple[Cell, float], ...]:
    pairs = []
    for g in goals:
        if isinstance(g[0], (tuple, list)):
            cell, weight = g
            pairs.append(((int(cell[0]), int(cell[1])), float(weight)))
        else:
            pairs.append(((int(g[0]), int(g[1])), 1.0))
    if not pairs:
        raise InvalidGoalError("at least one goal is required")
    for _, w in pairs:
        if not isfinite(w):
            raise InvalidGoalError(f"goal weights must be finite, got {w}")
    cells, weights = zip(*pairs)
    if any(w <= 0.0 for w in weights):
        raise InvalidGoalError("goal weights must be positive")
    if sum(weights) == inf:
        # finite weights whose sum overflows: scale by the largest first
        top = max(weights)
        weights = [w / top for w in weights]
    total = fsum(weights)
    weights = [w / total for w in weights]
    if fsum(weights) != 1.0:
        # give the largest weight the rounded complement of the others: the
        # exact sum then rounds to 1, so normalizing again divides by 1.0
        # and changes nothing (a parsed scenario reparses as itself)
        k = weights.index(max(weights))
        weights[k] = fsum([1.0, *(-w for j, w in enumerate(weights) if j != k)])
    pairs = list(zip(cells, weights))
    for cell, w in pairs:
        if w == 0.0:
            raise InvalidGoalError(
                f"goal weight of {cell} underflows to 0 against the total"
            )
    return tuple(pairs)


def _check_sharpness(sharpness: float) -> None:
    """Refuse a stencil sharpness outside (0, 1).

    ``grid.default_masks`` accepts 1, the deterministic limit, but its
    directional masks then keep no residue on the current cell, and every
    map has a free cell whose move off the map or into an obstacle would
    lose all of its mass.
    """
    if not 0.0 < sharpness < 1.0:
        raise ValueError(
            f"sharpness must be in (0, 1), got {sharpness}: at 1 a cell on "
            f"the boundary or next to an obstacle keeps no outward move"
        )


def _check_seed(seed: int) -> None:
    """Refuse a negative seed, which ``np.random.default_rng`` cannot take."""
    if seed < 0:
        raise ValueError(f"seed must be a non-negative integer, got {seed}")


def _check_policy(policy: str) -> None:
    """Refuse a policy other than abort, wait and sample."""
    if policy not in POLICIES:
        raise ValueError(f"unknown policy {policy!r}")


def _check_horizon(horizon: int | None) -> None:
    """Refuse a fixed horizon without a slice; None asks for the minimum."""
    if horizon is not None and horizon < 1:
        raise ValueError(f"horizon must be at least 1, got {horizon}")


def _check_search_cap(t_max: int | None) -> None:
    """Refuse a search bound below the two slices of one move."""
    if t_max is not None and t_max < 2:
        raise ValueError(f"t_max must be at least 2, got {t_max}")


@dataclass(frozen=True)
class Scenario:
    """A single-agent planning problem.

    ``horizon = None`` means "use the minimum feasible time", searched up
    to ``t_max`` slices (default four sweeps of the grid area).
    ``start_action = None`` leaves the initial action free (uniform); a
    concrete Action pins it as a joint delta with the start cell.
    """

    grid: GridMap
    start_cell: Cell
    goals: GoalSpec
    start_action: Action | None = None
    horizon: int | None = None
    t_max: int | None = None
    sharpness: float = 0.8
    stiffness: float = 0.0
    seed: int = 0
    policy: str = POLICY_ABORT
    goal_stop: bool = True

    def __post_init__(self):
        _check_free(self.start_cell, self.grid, f"start {self.start_cell}", ValueError)
        _check_sharpness(self.sharpness)
        _check_stiffness(self.stiffness)
        _check_seed(self.seed)
        _check_policy(self.policy)
        _check_horizon(self.horizon)
        _check_search_cap(self.t_max)
        object.__setattr__(self, "goals", _normalized_goals(self.goals))
        for cell, _ in self.goals:
            _check_free(cell, self.grid, f"goal {cell}")

    @property
    def goal_cells(self) -> tuple[Cell, ...]:
        return tuple(cell for cell, _ in self.goals)

    @property
    def search_cap(self) -> int:
        if self.t_max is not None:
            return self.t_max
        return 4 * self.grid.rows * self.grid.cols


@dataclass(frozen=True)
class Path:
    """A realized trajectory: (t, cell, action) per slice, t starting at 1.

    The action drives the transition out of its slice; the final slice has
    no outgoing transition, so its action is None.
    """

    steps: tuple[tuple[int, Cell, int | None], ...]
    reached_goal: bool

    @property
    def t_used(self) -> int:
        return len(self.steps)

    @property
    def transitions(self) -> int:
        return len(self.steps) - 1

    def cells(self) -> list[Cell]:
        return [cell for _, cell, _ in self.steps]


def validate_path(path: Path, grid: GridMap) -> None:
    """Assert the structural invariants of a path; raises ValueError."""
    if not path.steps:
        raise ValueError("empty path")
    for k, (t, cell, action) in enumerate(path.steps):
        if t != path.steps[0][0] + k:
            raise ValueError("time indices must increase by 1")
        _check_free(cell, grid, f"step {cell} at t={t}", ValueError)
        if action is None and k != len(path.steps) - 1:
            raise ValueError("only the final step may omit the action")
        if action is not None and not 0 <= action < N_ACTIONS:
            raise ValueError(f"bad action index {action}")
    for (_, a, _), (_, b, _) in zip(path.steps, path.steps[1:]):
        if max(abs(a[0] - b[0]), abs(a[1] - b[1])) > 1:
            raise ValueError(f"non-adjacent consecutive cells {a} -> {b}")


@dataclass(frozen=True, eq=False)
class PlanSetup:
    """Kernel, action matrix and goal marginal materialized from a scenario."""

    kernel: TransitionKernel
    p_action: np.ndarray
    goal: np.ndarray


def build_setup(scenario: Scenario) -> PlanSetup:
    kernel = build_kernel(scenario.grid, default_masks(scenario.sharpness))
    p_action = action_matrix(scenario.stiffness)
    return PlanSetup(kernel, p_action, goal_marginal(scenario.goals, scenario.grid))


def resolve_horizon(scenario: Scenario, setup: PlanSetup | None = None) -> int:
    """Fixed horizon if set, otherwise the minimum feasible time.

    With a pinned start action the minimum is taken over flows that carry
    backward mass on that exact (cell, action) pair, since a joint delta
    cannot exploit other initial headings.
    """
    if scenario.horizon is not None:
        return scenario.horizon
    setup = setup or build_setup(scenario)
    pinned = (
        scenario.start_action.index if scenario.start_action is not None else None
    )
    return engine.min_time(
        setup.kernel,
        setup.p_action,
        scenario.start_cell,
        setup.goal,
        scenario.search_cap,
        start_action=pinned,
    )


def _pick(values: np.ndarray, rng: np.random.Generator | None) -> tuple[int, ...]:
    """Index of the flat argmax (ties toward the lowest) or, given an rng,
    of a draw proportional to ``values``."""
    flat = values.reshape(-1)
    if rng is None:
        k = int(np.argmax(flat))
    else:
        k = int(rng.choice(flat.size, p=flat / flat.sum()))
    return tuple(int(x) for x in np.unravel_index(k, values.shape))


def _forward_move(
    setup: PlanSetup, cell: Cell, action: int | None, final: bool, cells: Box
) -> np.ndarray:
    """The forward values one move after the (cell, action) delta (a free
    heading is uniform) on ``cells``, a box that holds every cell the move
    can reach: cells at the final slice, else pairs.

    The engine steps run on the kernel cropped to ``cells``, with the delta
    at the cell's place in that box.  A delta has one source cell, so each
    moved product is the whole grid's; its stencil reaches no cell outside
    the box, since entries off the grid are zero.  Only the normalizing
    total may round differently from a whole-grid step."""
    kernel = setup.kernel
    grid = GridMap.from_mask(kernel.grid.mask[cells])
    box = _unscanned(grid, kernel.stencils[cells])  # a crop of checked stencils
    local = (cell[0] - cells[0].start, cell[1] - cells[1].start)
    pi = None if action is None else np.eye(N_ACTIONS)[action]
    f = engine.initial_forward(box, local, pi)
    if final:
        return engine.forward_final(f, box)
    return engine.forward_step(f, box, setup.p_action).values


def _commit_next(
    setup: PlanSetup,
    backward: MutableSequence[engine._Crop],
    horizon: int,
    t: int,
    cell: Cell,
    action: int | None,
    policy: str,
    rng: np.random.Generator,
    draw: bool,
) -> tuple[int, Cell, int | None]:
    """Commit slice ``t`` of a ``horizon``-slice plan whose slice t-1 is at
    (cell, action); ``backward`` holds slices 1 .. t of its chain at
    least, as crops whose slice t is exact (up to one scale) on the 3 x 3
    neighbourhood of ``cell``.

    The forward message restarts as that joint delta (``action = None``
    leaves the heading uniform).  After one move it is nonzero only on the
    neighbourhood, so both modes score those cells and no others: the
    delta's move there meets slice t of the chain, or the goal marginal at
    the final slice.  With ``draw`` set the chain is the sum-product one,
    and the pair is drawn in proportion to move times chain, the posterior
    up to its scale.  Where that product vanishes, slices t-1 .. horizon-1
    of ``backward`` are redone in place as the log sum-product tube from
    ``cell`` (``engine._LSE``), which this draw and every later one read:
    they weigh by the exp of log move plus log chain, shifted by its max,
    as does a final draw whose product with the goal vanishes.
    Otherwise the chain is the log max-product one, and the commitment is
    the argmax of the log move plus the best continuation, so the
    committed path is a maximum-likelihood one (a free heading takes the
    best first action).
    A log score has exact support, so one that vanished means no path:
    it falls back per ``policy``: abort raises ``NoFeasiblePathError``,
    wait stays on ``cell`` (still), sample draws the pair from the forward
    move (the final cell as the score would be picked).  A free ``action``
    is backfilled from the committed move.  Returns (action, next_cell,
    next_action); the final slice's next_action is None.
    """
    final = t == horizon
    select = rng if draw else None
    on_grid = engine._around(cell, 1, setup.kernel)  # all one move reaches
    if draw or action is not None:
        move = _forward_move(setup, cell, action, final, on_grid)
    else:
        # a greedy free heading scores from the stencils alone: the best
        # first action per (move, next action), the same cells as (u, v)
        # stencil slices; its uniform weight is the same for every a
        stencil_box = (slice(cell[0] - 1, cell[0] + 2), slice(cell[1] - 1, cell[1] + 2))
        move = setup.kernel.stencils[cell[0], cell[1]]
        if not final:
            move = move[..., None] * setup.p_action[:, None, None, :]
        move = move.max(axis=0)[engine._relative(on_grid, stencil_box)]
    meet = setup.goal[on_grid] if final else backward[t - 1][on_grid]
    linear = draw and (final or backward[t - 1].zero == 0.0)  # a sum-product meet
    score = move * meet if linear else None
    if linear and not score.any() and not final:
        sweep = (setup.kernel, setup.p_action, setup.goal, horizon - t + 2, cell)
        backward[t - 2:] = engine._tube(*sweep, engine._LSE)
        meet = backward[t - 1][on_grid]
    if not linear or not score.any():
        with np.errstate(divide="ignore"):
            score = np.log(move) + (np.log(meet) if final else meet)
        if draw and score.max() > -inf:
            score = np.exp(score - score.max())

    top, left = on_grid[0].start, on_grid[1].start
    if score.max() > -inf:
        i, j, *rest = _pick(score, select)
    elif policy == POLICY_ABORT:
        what = f"posterior vanished at slice {t}"
        what = "final posterior vanished" if final else what
        raise NoFeasiblePathError(f"{what} (horizon {horizon})")
    elif policy == POLICY_WAIT:
        i, j, *rest = cell[0] - top, cell[1] - left, STILL.index
    else:
        if not draw and action is None:
            move = _forward_move(setup, cell, action, final, on_grid)
        i, j, *rest = _pick(move, select if final else rng)
    next_cell = (i + top, j + left)
    next_action = None if final else rest[0]

    if action is None:
        # weight of each first action given the committed move
        du, dv = next_cell[0] - cell[0] + 1, next_cell[1] - cell[1] + 1
        stencil = setup.kernel.stencils[cell[0], cell[1], :, du, dv]
        weights = engine.uniform_actions() * stencil
        if next_action is not None:
            weights = weights * setup.p_action[:, next_action]
        (action,) = _pick(weights, select)
    return action, next_cell, next_action


def _extract(scenario: Scenario, draw: bool) -> Path:
    setup = build_setup(scenario)
    goal_cells = set(scenario.goal_cells)
    start = scenario.start_cell
    on_goal = start in goal_cells

    # the one exit without a move: a start on a goal stops at once unless
    # goal_stop is off, and a horizon below two slices has no transition
    horizon = 1 if on_goal and scenario.goal_stop else resolve_horizon(scenario, setup)
    if horizon < 2:
        if not on_goal and scenario.policy == POLICY_ABORT:
            raise NoFeasiblePathError(
                f"horizon {horizon} leaves no room for a transition"
            )
        return Path(((1, start, None),), on_goal)

    semiring = engine._SUM if draw else engine._MAX
    backward = engine._tube(
        setup.kernel, setup.p_action, setup.goal, horizon, start, semiring
    )
    rng = np.random.default_rng(scenario.seed)
    first_action = (
        scenario.start_action.index if scenario.start_action is not None else None
    )
    steps: list[tuple[int, Cell, int | None]] = [(1, start, first_action)]
    for t in range(2, horizon + 1):
        _, cur, action = steps[-1]
        action, cell, next_action = _commit_next(
            setup, backward, horizon, t, cur, action, scenario.policy, rng, draw
        )
        steps[-1] = (t - 1, cur, action)
        steps.append((t, cell, next_action))
        if scenario.goal_stop and cell in goal_cells:
            break
    return Path(tuple(steps), steps[-1][1] in goal_cells)


def greedy_plan(scenario: Scenario) -> Path:
    """Maximum-likelihood path extraction.

    Computes the max-product backward chain once (``engine._tube``, in
    log space so no horizon underflows, on the cells the path can reach),
    then commits slice by slice the next (cell, action) pair of a best
    trajectory, re-instantiating the forward message as a delta on each
    committed pair; a free initial action is the best first action.
    Without early stopping the path attains the largest trajectory weight
    of the horizon, the final goal weight included (the weight
    ``oracle.enumerate_paths`` reports).
    Stops early as soon as a goal cell is committed (disable with
    ``goal_stop=False``).  A horizon too short to reach the goal is
    handled per ``scenario.policy``: abort (raise), wait (emit still), or
    sample (draw from the forward message).
    """
    return _extract(scenario, draw=False)


def sample_path(scenario: Scenario) -> Path:
    """Like greedy_plan, but draw every commitment from the sum-product
    posterior, read from the same tube's sum-product chain."""
    return _extract(scenario, draw=True)


def path_likelihood(path: Path, scenario: Scenario) -> float:
    """Log-probability of a realized trajectory under the scenario's model.

    Product of the initial (cell, action) probability, every action- and
    state-transition factor, and the final state transition; -inf as soon
    as any factor is zero.
    """
    setup = build_setup(scenario)
    steps = path.steps
    t0, cell0, action0 = steps[0]
    if cell0 != scenario.start_cell:
        return -inf
    if len(steps) == 1:
        return 0.0  # one slice is the final one: a cell, without an action
    if scenario.start_action is not None:
        if action0 != scenario.start_action.index:
            return -inf
        total = 0.0
    else:
        total = log(1.0 / N_ACTIONS)  # free initial action

    for (t, cell, action), (_, nxt, nxt_action) in zip(steps, steps[1:]):
        if action is None:
            raise ValueError("only the final step may omit the action")
        du, dv = nxt[0] - cell[0] + 1, nxt[1] - cell[1] + 1
        if not (0 <= du <= 2 and 0 <= dv <= 2):
            return -inf
        w = setup.kernel.stencils[cell[0], cell[1], action, du, dv]
        if w == 0.0:
            return -inf
        total += log(w)
        if nxt_action is not None:
            pa = setup.p_action[action, nxt_action]
            if pa == 0.0:
                return -inf
            total += log(pa)
    return total


def scenario_flows(scenario: Scenario) -> engine.FlowSet:
    """Full flow set for a scenario; handy for rendering and diagnostics."""
    setup = build_setup(scenario)
    pinned = scenario.start_action
    return engine.run_flows(
        setup.kernel,
        setup.p_action,
        scenario.start_cell,
        setup.goal,
        resolve_horizon(scenario, setup),
        None if pinned is None else np.eye(N_ACTIONS)[pinned.index],
    )
