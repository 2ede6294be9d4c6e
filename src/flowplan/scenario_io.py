"""Plain-text scenario files.

A scenario file is an optional ``key = value`` header, a ``---``
separator, and an ASCII grid::

    horizon = auto
    kappa = 0.8
    ---
    S....
    ..#..
    ....G

Grid alphabet: ``#`` obstacle, ``.`` free, ``S`` start and ``G`` goal for
a single agent, digits ``1``-``9`` agent starts with matching goal letters
``a``-``i`` for the multi-agent form.  Header keys: ``horizon`` (``auto``
or an integer), ``kappa`` (stencil sharpness in (0, 1)), ``lambda``
(motion stiffness), ``seed``, ``policy`` (abort/wait/sample),
``schedule`` (fixed/random), ``t_max``, and ``goal_weights``
(comma-separated, matched to ``G`` cells in row-major order).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ScenarioParseError
from .grid import GridMap, _check_stiffness
from .multiagent import AgentSpec, _check_schedule, _check_t_max
from .planner import POLICY_ABORT, POLICY_WAIT, Scenario, _check_seed, _check_sharpness
from .planner import _check_policy, _normalized_goals

_DEFAULTS = {
    "horizon": "auto",
    "kappa": 0.8,
    "lambda": 0.0,
    "seed": 0,
    "policy": None,  # abort for single-agent, wait for multi-agent
    "schedule": "fixed",
    "t_max": None,
    "goal_weights": None,
}

# how each header value is read from its text; the others stay text
_READERS = {
    "horizon": lambda value: "auto" if value == "auto" else int(value),
    "kappa": float, "lambda": float, "seed": int, "t_max": int,
    "goal_weights": lambda value: tuple(float(v) for v in value.split(",")),
}

# header values refused with their line, as the constructors would refuse them
_CHECKS = {"kappa": _check_sharpness, "lambda": _check_stiffness, "seed": _check_seed,
           "policy": _check_policy, "schedule": _check_schedule}

_AGENT_DIGITS = "123456789"
_GOAL_LETTERS = "abcdefghi"
_GRID_CHARS = set("#.SG") | set(_AGENT_DIGITS) | set(_GOAL_LETTERS)


@dataclass(frozen=True)
class WorldSpec:
    """A parsed multi-agent scenario."""

    grid: GridMap
    agents: tuple[AgentSpec, ...]
    t_max: int
    schedule: str = "fixed"
    seed: int = 0

    def __post_init__(self):
        _check_t_max(self.t_max)
        _check_schedule(self.schedule)
        _check_seed(self.seed)


def _parse_header(lines: list[str]) -> tuple[dict, int]:
    values = dict(_DEFAULTS)
    saw_key = False
    for idx, raw in enumerate(lines):
        line = raw.strip()
        if line == "---":
            return values, idx + 1
        if not line:
            continue
        if "=" not in line:
            if saw_key:
                raise ScenarioParseError(
                    "missing '---' separator between header and grid", idx + 1
                )
            # headerless file: the grid starts at the top
            return dict(_DEFAULTS), 0
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if key not in _DEFAULTS:
            raise ScenarioParseError(f"unknown header key {key!r}", idx + 1)
        try:
            values[key] = _READERS.get(key, str)(value)
        except ValueError:
            raise ScenarioParseError(
                f"bad value {value!r} for {key!r}", idx + 1
            ) from None
        if key in _CHECKS:
            try:
                _CHECKS[key](values[key])
            except ValueError as exc:
                raise ScenarioParseError(str(exc), idx + 1) from None
        saw_key = True
    return dict(_DEFAULTS), 0


def parse_scenario(text: str) -> Scenario | WorldSpec:
    """Parse a scenario file into a Scenario or, with agent digits, a WorldSpec."""
    lines = text.splitlines()
    header, body_start = _parse_header(lines)

    grid_rows: list[str] = []
    line_nos: list[int] = []
    for idx in range(body_start, len(lines)):
        line = lines[idx].rstrip("\n")
        if not line.strip():
            continue
        grid_rows.append(line)
        line_nos.append(idx + 1)
    if not grid_rows:
        raise ScenarioParseError("no grid body found")

    width = len(grid_rows[0])
    start = None
    goals: list[tuple[int, int]] = []
    agent_starts: dict[str, tuple[int, int]] = {}
    agent_goals: dict[str, list[tuple[int, int]]] = {}
    mask = np.zeros((len(grid_rows), width), dtype=np.uint8)

    for i, (row, line_no) in enumerate(zip(grid_rows, line_nos)):
        if len(row) != width:
            raise ScenarioParseError(
                f"ragged grid: row has width {len(row)}, expected {width}",
                line_no,
            )
        for j, ch in enumerate(row):
            if ch not in _GRID_CHARS:
                raise ScenarioParseError(
                    f"unknown grid character {ch!r} at column {j + 1}", line_no
                )
            if ch == "#":
                mask[i, j] = 1
            elif ch == "S":
                if start is not None:
                    raise ScenarioParseError(
                        f"duplicate start 'S' at column {j + 1}", line_no
                    )
                start = (i, j)
            elif ch == "G":
                goals.append((i, j))
            elif ch in _AGENT_DIGITS:
                if ch in agent_starts:
                    raise ScenarioParseError(
                        f"duplicate agent start {ch!r} at column {j + 1}",
                        line_no,
                    )
                agent_starts[ch] = (i, j)
            elif ch in _GOAL_LETTERS:
                agent_goals.setdefault(ch, []).append((i, j))

    grid = GridMap.from_mask(mask)
    single = start is not None or goals
    multi = agent_starts or agent_goals
    if single and multi:
        raise ScenarioParseError("mix of single-agent (S/G) and agent digits")
    if not single and not multi:
        raise ScenarioParseError("grid has no start or agents")

    if single:
        return _single_scenario(grid, start, goals, header)
    return _world_spec(grid, agent_starts, agent_goals, header)


def _single_scenario(grid, start, goals, header) -> Scenario:
    if start is None:
        raise ScenarioParseError("goal present but no start 'S'")
    if not goals:
        raise ScenarioParseError("start present but no goal 'G'")
    weights = header["goal_weights"]
    if weights is None:
        weighted = [(g, 1.0) for g in goals]
    else:
        if len(weights) != len(goals):
            raise ScenarioParseError(
                f"goal_weights has {len(weights)} entries for {len(goals)} goals"
            )
        weighted = list(zip(goals, weights))
    return Scenario(
        grid=grid,
        start_cell=start,
        goals=weighted,
        horizon=None if header["horizon"] == "auto" else header["horizon"],
        t_max=header["t_max"],
        sharpness=header["kappa"],
        stiffness=header["lambda"],
        seed=header["seed"],
        policy=header["policy"] or POLICY_ABORT,
    )


def _world_spec(grid, agent_starts, agent_goals, header) -> WorldSpec:
    if header["goal_weights"] is not None:
        raise ScenarioParseError("goal_weights applies to single-agent files only")
    agents = []
    for digit in sorted(agent_starts):
        letter = _GOAL_LETTERS[_AGENT_DIGITS.index(digit)]
        if letter not in agent_goals:
            raise ScenarioParseError(
                f"agent {digit!r} has no goal letter {letter!r}"
            )
        agents.append(
            AgentSpec(
                agent_id=int(digit),
                start_cell=agent_starts[digit],
                goals=[(g, 1.0) for g in agent_goals[letter]],
                sharpness=header["kappa"],
                stiffness=header["lambda"],
                policy=header["policy"] or POLICY_WAIT,
            )
        )
    for letter in agent_goals:
        digit = _AGENT_DIGITS[_GOAL_LETTERS.index(letter)]
        if digit not in agent_starts:
            raise ScenarioParseError(
                f"goal letter {letter!r} has no agent digit {digit!r}"
            )
    t_max = header["t_max"]
    if t_max is None:
        t_max = 4 * grid.rows * grid.cols
    return WorldSpec(
        grid=grid,
        agents=tuple(agents),
        t_max=t_max,
        schedule=header["schedule"],
        seed=header["seed"],
    )


def serialize_scenario(obj: Scenario | WorldSpec) -> str:
    """Canonical text form; parse(serialize(parse(x))) == parse(x).

    Raises ValueError, naming the reason, for what a file cannot hold:
    marks off the free cells or sharing one, a pinned start action,
    ``goal_stop=False``, and agents that are not increasing digits, differ
    in settings, chase, or weight their goals.
    """
    if isinstance(obj, Scenario):
        return _serialize_single(obj)
    return _serialize_world(obj)


def _grid_chars(grid: GridMap) -> list[list[str]]:
    return np.where(grid.mask == 1, "#", ".").tolist()


def _mark(rows: list[list[str]], grid: GridMap, cell, ch: str) -> None:
    """Write ``ch`` on a free ``cell`` that no earlier mark holds."""
    if not grid.is_free(cell):
        raise ValueError(f"{ch!r} at {cell} is not on a free cell")
    held = rows[cell[0]][cell[1]]
    if held != ".":
        raise ValueError(f"{ch!r} at {cell} meets {held!r}: one character per cell")
    rows[cell[0]][cell[1]] = ch


def _unit_weights(goals) -> bool:
    """Whether ``goals`` carry the weights that unweighted cells get."""
    return tuple(goals) == _normalized_goals([cell for cell, _ in goals])


def _serialize_single(sc: Scenario) -> str:
    if sc.start_action is not None:
        raise ValueError("a pinned start action has no header key")
    if not sc.goal_stop:
        raise ValueError("goal_stop=False has no header key")
    rows = _grid_chars(sc.grid)
    _mark(rows, sc.grid, sc.start_cell, "S")
    ordered = sorted(sc.goals, key=lambda gw: gw[0])
    for cell, _ in ordered:
        _mark(rows, sc.grid, cell, "G")
    header = [
        f"horizon = {'auto' if sc.horizon is None else sc.horizon}",
        f"kappa = {sc.sharpness}",
        f"lambda = {sc.stiffness}",
        f"seed = {sc.seed}",
        f"policy = {sc.policy}",
    ]
    if sc.t_max is not None:
        header.append(f"t_max = {sc.t_max}")
    # omitted only where unit weights normalize to the same ones: equal
    # weights need not (three weights of 349525.96 normalize to 1/3 + 1 ulp)
    if not _unit_weights(ordered):
        header.append("goal_weights = " + ",".join(repr(w) for _, w in ordered))
    body = "\n".join("".join(r) for r in rows)
    return "\n".join(header) + "\n---\n" + body + "\n"


def _serialize_world(ws: WorldSpec) -> str:
    ids = [spec.agent_id for spec in ws.agents]
    for aid in ids:
        if not 1 <= aid <= 9:
            raise ValueError(f"agent id {aid} has no grid digit (1-9)")
    if not ids or ids != sorted(set(ids)):
        raise ValueError(f"agent ids {ids} are not one or more increasing digits")
    for key in ("sharpness", "stiffness", "policy"):
        if len({getattr(spec, key) for spec in ws.agents}) > 1:
            raise ValueError(f"agents differ in {key}; a file holds one for all")
    rows = _grid_chars(ws.grid)
    for spec in ws.agents:
        if spec.chase:
            raise ValueError(f"agent {spec.agent_id} chases; a file cannot say so")
        if not _unit_weights(spec.goals):
            raise ValueError(f"agent {spec.agent_id} weights its goals; a file cannot")
        _mark(rows, ws.grid, spec.start_cell, _AGENT_DIGITS[spec.agent_id - 1])
        for cell, _ in spec.goals:
            _mark(rows, ws.grid, cell, _GOAL_LETTERS[spec.agent_id - 1])
    first = ws.agents[0]
    header = [
        f"kappa = {first.sharpness}",
        f"lambda = {first.stiffness}",
        f"seed = {ws.seed}",
        f"policy = {first.policy}",
        f"schedule = {ws.schedule}",
        f"t_max = {ws.t_max}",
    ]
    body = "\n".join("".join(r) for r in rows)
    return "\n".join(header) + "\n---\n" + body + "\n"
