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
``a``-``i`` for the multi-agent form.  Header keys (``_KEYS``): ``kappa``
(sharpness in (0, 1)), ``lambda`` (stiffness), ``seed``, ``policy`` and
``t_max`` in both kinds of file, ``horizon`` (``auto`` or an integer) and
``goal_weights`` (for the ``G`` cells in row-major order) in single-agent
ones, ``schedule`` in multi-agent ones.  A value its object would refuse,
or a key the file's kind does not hold, is refused at its line.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import InvalidGoalError, ScenarioParseError
from .grid import GridMap, _check_stiffness
from .multiagent import AgentSpec, _check_schedule, _check_t_max
from .planner import Scenario, _check_horizon, _check_policy, _check_search_cap
from .planner import _check_seed, _check_sharpness, _normalized_goals

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


def _unit_weights(goals) -> bool:
    """Whether ``goals`` carry the weights that unweighted cells get."""
    return tuple(goals) == _normalized_goals([cell for cell, _ in goals])


def _weights_text(goals) -> str | None:
    # left out only where unit weights normalize to the same ones: equal
    # weights need not (three weights of 349525.96 normalize to 1/3 + 1 ulp)
    ordered = sorted(goals, key=lambda gw: gw[0])
    return None if _unit_weights(ordered) else ",".join(repr(w) for _, w in ordered)


@dataclass(frozen=True)
class _Key:
    """The ``field`` one header key sets, read from its text by ``read`` and
    written back by ``write`` (None leaves the key out), and the checker of
    each object that holds it: ``Scenario`` in a single-agent file, every
    ``AgentSpec`` or the ``WorldSpec`` in a multi-agent one."""

    field: str
    read: Callable
    checks: dict
    write: Callable = lambda value: None if value is None else str(value)


# every header key, in the order the serializer writes them
_KEYS = {
    "horizon": _Key("horizon", lambda text: None if text == "auto" else int(text),
                    {Scenario: _check_horizon},
                    lambda horizon: "auto" if horizon is None else str(horizon)),
    "kappa": _Key("sharpness", float,
                  {Scenario: _check_sharpness, AgentSpec: _check_sharpness}),
    "lambda": _Key("stiffness", float,
                   {Scenario: _check_stiffness, AgentSpec: _check_stiffness}),
    "seed": _Key("seed", int, {Scenario: _check_seed, WorldSpec: _check_seed}),
    "policy": _Key("policy", str, {Scenario: _check_policy, AgentSpec: _check_policy}),
    "schedule": _Key("schedule", str, {WorldSpec: _check_schedule}),
    "t_max": _Key("t_max", int, {Scenario: _check_search_cap, WorldSpec: _check_t_max}),
    # weighs the G cells; Scenario checks the weights with their cells, and
    # _single_scenario refuses them at this key's line
    "goal_weights": _Key("goals", lambda text: tuple(float(v) for v in text.split(",")),
                         {Scenario: lambda weights: None}, _weights_text),
}

# the objects a header sets, by the kind of file
_HOLDERS = {Scenario: (Scenario,), WorldSpec: (WorldSpec, AgentSpec)}
_KIND_NAMES = {Scenario: "single-agent", WorldSpec: "multi-agent"}


def _parse_header(lines: list[str]) -> tuple[dict, int]:
    """Each header key's value and line number, and the grid's first line."""
    values = {}
    for idx, line in enumerate(raw.strip() for raw in lines):
        if line == "---":
            return values, idx + 1
        if "=" in line:
            key, _, value = (part.strip() for part in line.partition("="))
            if key not in _KEYS:
                raise ScenarioParseError(f"unknown header key {key!r}", idx + 1)
            try:
                values[key] = _KEYS[key].read(value), idx + 1
            except ValueError:
                raise ScenarioParseError(
                    f"bad value {value!r} for {key!r}", idx + 1
                ) from None
        elif line:
            if values:
                raise ScenarioParseError(
                    "missing '---' separator between header and grid", idx + 1
                )
            break  # headerless file: the grid starts at the top
    return {}, 0


def _fields(header: dict, kind: type) -> dict[type, dict]:
    """The header's values as fields of the objects they set in a ``kind``
    file, each checked at its line by that object's checker; then a key that
    ``kind`` does not hold, checked by all of its checkers, is refused."""
    fields = {holder: {} for holder in _HOLDERS[kind]}
    stray = []
    for key, (value, line) in header.items():
        entry = _KEYS[key]
        holder = next((h for h in _HOLDERS[kind] if h in entry.checks), None)
        try:
            for check in [entry.checks[holder]] if holder else entry.checks.values():
                check(value)
        except ValueError as exc:
            raise ScenarioParseError(str(exc), line) from None
        if holder is None:
            stray.append((key, line))
        else:
            fields[holder][entry.field] = value
    if stray:
        key, line = stray[0]
        raise ScenarioParseError(f"{key} is not a {_KIND_NAMES[kind]} key", line)
    return fields


def parse_scenario(text: str) -> Scenario | WorldSpec:
    """Parse a scenario file into a Scenario or, with agent digits, a WorldSpec."""
    lines = text.splitlines()
    header, body_start = _parse_header(lines)

    body = [(no, row) for no, row in enumerate(lines, 1)
            if no > body_start and row.strip()]
    if not body:
        raise ScenarioParseError("no grid body found")

    width = len(body[0][1])
    start = None
    goals: list[tuple[int, int]] = []
    agent_starts: dict[str, tuple[int, int]] = {}
    agent_goals: dict[str, list[tuple[int, int]]] = {}
    mask = np.zeros((len(body), width), dtype=np.uint8)

    for i, (line_no, row) in enumerate(body):
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
    fields = _fields(header, Scenario)[Scenario]
    if start is None:
        raise ScenarioParseError("goal present but no start 'S'")
    if not goals:
        raise ScenarioParseError("start present but no goal 'G'")
    weights = fields.pop("goals", (1.0,) * len(goals))
    if len(weights) != len(goals):
        raise ScenarioParseError(
            f"goal_weights has {len(weights)} entries for {len(goals)} goals",
            header["goal_weights"][1],
        )
    goals = list(zip(goals, weights))
    try:
        return Scenario(grid=grid, start_cell=start, goals=goals, **fields)
    except InvalidGoalError as exc:  # G cells are free: only weights are refused
        raise ScenarioParseError(str(exc), header["goal_weights"][1]) from None


def _world_spec(grid, agent_starts, agent_goals, header) -> WorldSpec:
    fields = _fields(header, WorldSpec)
    agents = []
    for digit in sorted(agent_starts):
        letter = _GOAL_LETTERS[_AGENT_DIGITS.index(digit)]
        if letter not in agent_goals:
            raise ScenarioParseError(
                f"agent {digit!r} has no goal letter {letter!r}"
            )
        agents.append(AgentSpec(int(digit), agent_starts[digit], agent_goals[letter],
                                **fields[AgentSpec]))
    for letter in agent_goals:
        digit = _AGENT_DIGITS[_GOAL_LETTERS.index(letter)]
        if digit not in agent_starts:
            raise ScenarioParseError(
                f"goal letter {letter!r} has no agent digit {digit!r}"
            )
    # WorldSpec has no default budget: four sweeps of the grid area
    world = {"t_max": 4 * grid.rows * grid.cols, **fields[WorldSpec]}
    return WorldSpec(grid=grid, agents=tuple(agents), **world)


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


def _file(holders: dict, rows: list[list[str]]) -> str:
    """The text of a file whose header sets ``holders`` (holder type to
    object): every key they hold, in ``_KEYS`` order, then the grid."""
    texts = {key: entry.write(getattr(holders[h], entry.field))
             for key, entry in _KEYS.items() for h in entry.checks if h in holders}
    header = [f"{key} = {text}" for key, text in texts.items() if text is not None]
    body = "\n".join("".join(r) for r in rows)
    return "\n".join(header) + "\n---\n" + body + "\n"


def _serialize_single(sc: Scenario) -> str:
    if sc.start_action is not None:
        raise ValueError("a pinned start action has no header key")
    if not sc.goal_stop:
        raise ValueError("goal_stop=False has no header key")
    rows = _grid_chars(sc.grid)
    _mark(rows, sc.grid, sc.start_cell, "S")
    for cell, _ in sorted(sc.goals, key=lambda gw: gw[0]):
        _mark(rows, sc.grid, cell, "G")
    return _file({Scenario: sc}, rows)


def _serialize_world(ws: WorldSpec) -> str:
    ids = [spec.agent_id for spec in ws.agents]
    for aid in ids:
        if not 1 <= aid <= 9:
            raise ValueError(f"agent id {aid} has no grid digit (1-9)")
    if not ids or ids != sorted(set(ids)):
        raise ValueError(f"agent ids {ids} are not one or more increasing digits")
    for field in (entry.field for entry in _KEYS.values() if AgentSpec in entry.checks):
        if len({getattr(spec, field) for spec in ws.agents}) > 1:
            raise ValueError(f"agents differ in {field}; a file holds one for all")
    rows = _grid_chars(ws.grid)
    for spec in ws.agents:
        if spec.chase:
            raise ValueError(f"agent {spec.agent_id} chases; a file cannot say so")
        if not _unit_weights(spec.goals):
            raise ValueError(f"agent {spec.agent_id} weights its goals; a file cannot")
        _mark(rows, ws.grid, spec.start_cell, _AGENT_DIGITS[spec.agent_id - 1])
        for cell, _ in spec.goals:
            _mark(rows, ws.grid, cell, _GOAL_LETTERS[spec.agent_id - 1])
    return _file({AgentSpec: ws.agents[0], WorldSpec: ws}, rows)
