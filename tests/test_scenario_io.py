from __future__ import annotations

from dataclasses import MISSING, fields, replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import numpy as np

from flowplan import (
    ACTIONS,
    AgentSpec,
    GridMap,
    InvalidGoalError,
    Scenario,
    ScenarioParseError,
    WorldSpec,
    parse_scenario,
    serialize_scenario,
)
from flowplan import scenarios
from flowplan.multiagent import SCHEDULES
from flowplan.planner import POLICIES


MINIMAL = """horizon = auto
kappa = 0.8
---
S..
...
..G
"""


def test_minimal_file_parses_with_defaults():
    sc = parse_scenario(MINIMAL)
    assert isinstance(sc, Scenario)
    assert sc.start_cell == (0, 0)
    assert sc.goals == (((2, 2), 1.0),)
    assert sc.horizon is None
    assert sc.sharpness == 0.8
    assert sc.stiffness == 0.0
    assert sc.seed == 0
    assert sc.policy == "abort"


def test_headerless_grid_parses():
    sc = parse_scenario("S..\n...\n..G\n")
    assert isinstance(sc, Scenario)
    assert sc.start_cell == (0, 0)


def test_fixed_horizon_and_weights():
    text = "horizon = 9\ngoal_weights = 0.2,0.8\n---\nS.G\n..G\n"
    sc = parse_scenario(text)
    assert sc.horizon == 9
    assert sc.goals == (((0, 2), 0.2), ((1, 2), 0.8))


def test_non_finite_goal_weights_are_refused():
    for weights in ("nan,1", "1,inf", "-inf,1"):
        text = f"kappa = 0.8\ngoal_weights = {weights}\n---\nS.G\n..G\n"
        with pytest.raises(
            ScenarioParseError, match="^line 2: goal weights must be finite"
        ) as err:
            parse_scenario(text)
        assert err.value.line == 2


def test_goal_weights_that_underflow_are_refused():
    text = "goal_weights = 1e308,1e-300\n---\nS.G\n..G\n"
    with pytest.raises(
        ScenarioParseError, match=r"^line 1: goal weight of \(1, 2\) underflows"
    ) as err:
        parse_scenario(text)
    assert err.value.line == 1


_BAD_WEIGHTS = [
    ("nan,1", "goal weights must be finite, got nan"),
    ("0,1", "goal weights must be positive"),
    ("-1,1", "goal weights must be positive"),
    ("1e308,1e-300", r"goal weight of \(1, 2\) underflows to 0 against the total"),
]


@pytest.mark.parametrize("weights, message", _BAD_WEIGHTS)
def test_bad_goal_weights_are_refused_at_their_line(weights, message):
    text = f"goal_weights = {weights}\n---\nS.G\n..G\n"
    with pytest.raises(ScenarioParseError, match=f"^line 1: {message}$") as err:
        parse_scenario(text)
    assert err.value.line == 1
    # the constructor still refuses them without a line
    cells_weights = zip([(0, 2), (1, 2)], (float(w) for w in weights.split(",")))
    with pytest.raises(InvalidGoalError, match=f"^{message}$"):
        Scenario(GridMap.empty(2, 3), (0, 0), list(cells_weights))


def test_goal_weights_whose_sum_overflows_parse():
    sc = parse_scenario("goal_weights = 1e308,1e308\n---\nS.G\n..G\n")
    assert sc.goals == (((0, 2), 0.5), ((1, 2), 0.5))


def test_corridor_parses_into_two_agents():
    ws = parse_scenario(scenarios.load("corridor"))
    assert isinstance(ws, WorldSpec)
    assert [a.agent_id for a in ws.agents] == [1, 2]
    assert ws.agents[0].start_cell == (1, 1)
    assert ws.agents[0].goals == (((3, 5), 1.0),)
    assert ws.agents[1].goals == (((3, 1), 1.0),)
    assert ws.t_max == 40
    assert ws.agents[0].policy == "wait"


def test_ragged_grid_reports_line_number():
    with pytest.raises(ScenarioParseError) as err:
        parse_scenario("---\nS..\n....\n..G\n")
    assert "line 3" in str(err.value)
    assert err.value.line == 3


def test_duplicate_start_reports_position():
    with pytest.raises(ScenarioParseError) as err:
        parse_scenario("---\nS..\n.S.\n..G\n")
    assert "duplicate start" in str(err.value)
    assert err.value.line == 3


def test_unknown_header_key_reports_line():
    with pytest.raises(ScenarioParseError) as err:
        parse_scenario("speed = 9\n---\nS.G\n")
    assert err.value.line == 1
    assert "speed" in str(err.value)


def test_bad_header_value_reports_line():
    with pytest.raises(ScenarioParseError) as err:
        parse_scenario("horizon = soon\n---\nS.G\n")
    assert err.value.line == 1


def test_unknown_grid_character():
    with pytest.raises(ScenarioParseError) as err:
        parse_scenario("---\nS.X\n..G\n")
    assert "'X'" in str(err.value)


def test_agent_digit_without_goal_letter():
    with pytest.raises(ScenarioParseError) as err:
        parse_scenario("---\n1..\n..a\n.2.\n")
    assert "no goal letter" in str(err.value)


def test_goal_letter_without_agent_digit():
    with pytest.raises(ScenarioParseError) as err:
        parse_scenario("---\n1.a\n..b\n")
    assert "no agent digit" in str(err.value)


def test_mixed_single_and_multi_agent_rejected():
    with pytest.raises(ScenarioParseError):
        parse_scenario("---\nS.1\n.aG\n")


def test_goal_weight_arity_mismatch():
    with pytest.raises(ScenarioParseError):
        parse_scenario("goal_weights = 0.5\n---\nS.G\n..G\n")


def test_goal_weights_rejected_for_multi_agent():
    with pytest.raises(ScenarioParseError):
        parse_scenario("goal_weights = 1.0\n---\n1.a\n")


def test_empty_body_rejected():
    with pytest.raises(ScenarioParseError):
        parse_scenario("horizon = auto\n---\n")
    with pytest.raises(ScenarioParseError):
        parse_scenario("---\n...\n...\n")


@pytest.mark.parametrize("name", ["empty5", "maze15", "corridor", "agents5"])
def test_round_trip_identity_on_bundled_fixtures(name):
    first = parse_scenario(scenarios.load(name))
    second = parse_scenario(serialize_scenario(first))
    assert first == second
    # serialization is a fixed point after one round
    assert serialize_scenario(first) == serialize_scenario(second)


def test_the_serializer_writes_the_keys_of_each_kind_in_one_order():
    sc = parse_scenario(
        "goal_weights = 1,3\nt_max = 9\npolicy = wait\nseed = 4\nlambda = 0.5\n"
        "kappa = 0.7\nhorizon = 6\n---\nS.G\n..G\n"
    )
    assert serialize_scenario(sc) == (
        "horizon = 6\nkappa = 0.7\nlambda = 0.5\nseed = 4\npolicy = wait\n"
        "t_max = 9\ngoal_weights = 0.25,0.75\n---\nS.G\n..G\n"
    )
    # a search bound and goal weights left out are not written
    assert serialize_scenario(parse_scenario("---\nS.G\n")) == (
        "horizon = auto\nkappa = 0.8\nlambda = 0.0\nseed = 0\npolicy = abort\n"
        "---\nS.G\n"
    )
    world = parse_scenario("---\n1.a\n")
    assert serialize_scenario(world) == (
        "kappa = 0.8\nlambda = 0.0\nseed = 0\npolicy = wait\nschedule = fixed\n"
        "t_max = 12\n---\n1.a\n"
    )


def test_weighted_goals_survive_round_trip():
    text = "goal_weights = 0.25,0.75\n---\nS.G\n..G\n"
    first = parse_scenario(text)
    second = parse_scenario(serialize_scenario(first))
    assert first == second


def test_goal_weights_a_hair_apart_survive_round_trip():
    # normalized, the two weights differ by 5e-14
    first = parse_scenario("goal_weights = 1,1.0000000000001\n---\nS.G\n..G\n")
    assert first.goals[0][1] != first.goals[1][1]
    second = parse_scenario(serialize_scenario(first))
    assert first == second


def _weighted_text(weights) -> str:
    # one goal cell per weight: the last len(weights) of the four G cells
    header = "goal_weights = " + ",".join(repr(float(w)) for w in weights)
    return header + "\n---\nS.G.G\n..G.G\n".replace("G", ".", 4 - len(weights))


@pytest.mark.parametrize("weights", [
    # normalized by their float sum, these did not sum to 1 again, so
    # normalizing them once more moved the first one's last digit
    [1.0001288936664803, 0.9992154613701554, 0.012381744486666624],
    # equal, but not normalized to what the same goals without weights get
    [349525.9617646261] * 3,
])
def test_normalized_goal_weights_survive_round_trip(weights):
    first = parse_scenario(_weighted_text(weights))
    second = parse_scenario(serialize_scenario(first))
    assert first == second


@settings(max_examples=300, deadline=None)
@given(st.lists(st.floats(1e-150, 1e150), min_size=2, max_size=4))
def test_random_goal_weights_survive_round_trip(weights):
    first = parse_scenario(_weighted_text(weights))
    text = serialize_scenario(first)
    second = parse_scenario(text)
    assert first == second
    assert serialize_scenario(second) == text


@pytest.mark.parametrize("agent_id", [0, 10, -1])
def test_agent_ids_without_a_grid_digit_are_refused_by_the_serializer(agent_id):
    world = parse_scenario(scenarios.load("corridor"))
    agents = (replace(world.agents[0], agent_id=agent_id), *world.agents[1:])
    with pytest.raises(ValueError, match=f"agent id {agent_id} has no grid digit"):
        serialize_scenario(replace(world, agents=agents))


@pytest.mark.parametrize("line, message", [
    ("seed = -1", "seed must be a non-negative integer, got -1"),
    ("lambda = 1.5", "stiffness must be in [0, 1], got 1.5"),
    ("lambda = nan", "stiffness must be in [0, 1], got nan"),
    ("policy = bogus", "unknown policy 'bogus'"),
    ("schedule = bogus", "unknown schedule 'bogus'"),
], ids=["seed", "lambda-1.5", "lambda-nan", "policy", "schedule"])
def test_seed_and_stiffness_are_refused_at_their_header_line(line, message):
    for grid in ("S.G\n", "1.a\n2.b\n"):
        with pytest.raises(ScenarioParseError) as err:
            parse_scenario(f"horizon = auto\n{line}\n---\n{grid}")
        assert err.value.line == 2
        assert str(err.value) == f"line 2: {message}"


@pytest.mark.parametrize("setting, message", [
    ({"schedule": "bogus"}, "unknown schedule 'bogus'"),
    ({"seed": -1}, "seed must be a non-negative integer, got -1"),
    ({"t_max": 0}, "t_max must be at least 1, got 0"),
], ids=["schedule", "seed", "t_max"])
def test_a_world_refuses_what_its_file_would_refuse(setting, message):
    # each was once accepted and serialized as a file that failed to parse
    with pytest.raises(ValueError, match=message):
        WorldSpec(GridMap.empty(3, 3), (AgentSpec(1, (0, 0), [(2, 2)]),),
                  **{"t_max": 20, **setting})


def test_missing_separator_after_header_is_reported():
    with pytest.raises(ScenarioParseError) as err:
        parse_scenario("horizon = 9\nS.G\n")
    assert "---" in str(err.value)
    assert err.value.line == 2


@pytest.mark.parametrize("kappa", ["1", "1.0", "0", "1.5"])
def test_sharpness_outside_the_open_unit_interval_is_refused(kappa):
    with pytest.raises(ScenarioParseError) as err:
        parse_scenario(f"horizon = auto\nkappa = {kappa}\n---\nS.G\n")
    assert err.value.line == 2
    assert "sharpness must be in (0, 1)" in str(err.value)
    with pytest.raises(ScenarioParseError):
        parse_scenario(f"kappa = {kappa}\n---\n1.a\n")


_SMALL = GridMap.empty(2, 3)


def _world(*agents: AgentSpec) -> WorldSpec:
    return WorldSpec(GridMap.empty(3, 3), agents, t_max=20)


@pytest.mark.parametrize("obj, message", [
    (Scenario(_SMALL, (0, 0), [(0, 0), (1, 2)]),
     r"'G' at \(0, 0\) meets 'S'"),
    (Scenario(_SMALL, (0, 0), [((1, 1), 1.0), ((1, 1), 3.0)]),
     r"'G' at \(1, 1\) meets 'G'"),
    (Scenario(_SMALL, (0, 0), [(1, 2)], start_action=ACTIONS[3]),
     "a pinned start action has no header key"),
    (Scenario(_SMALL, (0, 0), [(1, 2)], goal_stop=False),
     "goal_stop=False has no header key"),
    (_world(AgentSpec(1, (0, 0), [(0, 1)]), AgentSpec(2, (0, 1), [(0, 0)])),
     r"'2' at \(0, 1\) meets 'a'"),
    (_world(AgentSpec(1, (0, 0), [(2, 2)]), AgentSpec(2, (0, 1), [(2, 2)])),
     r"'b' at \(2, 2\) meets 'a'"),
    (_world(AgentSpec(1, (0, 0), [(2, 2)]), AgentSpec(2, (0, 1), chase=(1,))),
     "agent 2 chases"),
    (_world(AgentSpec(1, (0, 0), [(2, 2)]),
            AgentSpec(2, (0, 1), [(2, 0)], sharpness=0.7)),
     "agents differ in sharpness"),
    (_world(AgentSpec(1, (0, 0), [(2, 2)]),
            AgentSpec(2, (0, 1), [(2, 0)], stiffness=0.5)),
     "agents differ in stiffness"),
    (_world(AgentSpec(1, (0, 0), [(2, 2)]),
            AgentSpec(2, (0, 1), [(2, 0)], policy="sample")),
     "agents differ in policy"),
    (_world(AgentSpec(1, (0, 0), [((2, 2), 1.0), ((2, 0), 3.0)])),
     "agent 1 weights its goals"),
    (_world(AgentSpec(2, (0, 0), [(2, 2)]), AgentSpec(1, (0, 1), [(2, 0)])),
     r"agent ids \[2, 1\] are not one or more increasing"),
    (_world(AgentSpec(1, (0, 0), [(2, 2)]), AgentSpec(1, (0, 1), [(2, 0)])),
     r"agent ids \[1, 1\] are not one or more increasing"),
    (_world(), r"agent ids \[\] are not one or more increasing"),
    (WorldSpec(GridMap.empty(3, 3).with_obstacles([(0, 0)]),
               (AgentSpec(1, (0, 0), [(2, 2)]),), 20),
     r"'1' at \(0, 0\) is not on a free cell"),
    (_world(AgentSpec(1, (0, 0), [(-1, 2)])),
     r"'a' at \(-1, 2\) is not on a free cell"),
], ids=["start-on-goal", "goal-twice", "start-action", "goal-stop", "swap",
        "shared-goal", "chase", "kappa", "lambda", "policy", "agent-weights",
        "id-order", "id-twice", "no-agents", "on-obstacle", "off-grid"])
def test_what_a_file_cannot_hold_is_refused_by_the_serializer(obj, message):
    # each of these used to be written as a file that failed to parse or
    # read back as another scenario
    with pytest.raises(ValueError, match=message):
        serialize_scenario(obj)


# -- round trips of random headers and grids ---------------------------------

_SETTINGS = dict(
    sharpness=st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
    stiffness=st.floats(0.0, 1.0),
    policy=st.sampled_from(POLICIES),
)


def _rarely(draw) -> bool:
    """True in about one draw of ten."""
    return draw(st.integers(0, 9)) == 0


@st.composite
def _grid_and_cells(draw, count: int):
    """A map of up to 5 x 6, 1 x N and N x 1 included, and ``count`` cells
    on it, which may coincide; every drawn cell is made free."""
    rows, cols = draw(st.tuples(st.integers(1, 5), st.integers(1, 6)))
    mask = np.array(
        draw(st.lists(st.booleans(), min_size=rows * cols, max_size=rows * cols)),
        np.uint8,
    ).reshape(rows, cols)
    cell = st.tuples(st.integers(0, rows - 1), st.integers(0, cols - 1))
    # mostly distinct, where the map has room
    unique = rows * cols >= count and not _rarely(draw)
    cells = draw(st.lists(cell, min_size=count, max_size=count, unique=unique))
    for c in cells:
        mask[c] = 0
    return GridMap.from_mask(mask), cells


def _distinct(cells) -> bool:
    return len(set(cells)) == len(cells)


@st.composite
def single_scenarios(draw):
    """A Scenario with every header value in range and its goals in
    row-major order, and whether a file can hold it."""
    n_goals = draw(st.integers(1, 3))
    grid, cells = draw(_grid_and_cells(1 + n_goals))
    goals = sorted(cells[1:])
    weights = draw(st.none() | st.lists(st.floats(1e-3, 1e3), min_size=n_goals,
                                        max_size=n_goals))
    start_action = draw(st.sampled_from(ACTIONS)) if _rarely(draw) else None
    goal_stop = not _rarely(draw)
    scenario = Scenario(
        grid,
        cells[0],
        goals if weights is None else list(zip(goals, weights)),
        start_action=start_action,
        horizon=draw(st.none() | st.integers(1, 60)),
        t_max=draw(st.none() | st.integers(2, 200)),
        seed=draw(st.integers(0, 2**32)),
        goal_stop=goal_stop,
        **{k: draw(v) for k, v in _SETTINGS.items()},
    )
    return scenario, _distinct(cells) and start_action is None and goal_stop


@st.composite
def world_specs(draw):
    """A WorldSpec with every header value in range and each agent's goals
    in row-major order, and whether a file can hold it.  Cells may
    coincide, agents may differ in settings, weight their goals or chase,
    and their ids may repeat or come out of order."""
    n_agents = draw(st.integers(1, 3))
    n_goals = draw(st.lists(st.integers(1, 2), min_size=n_agents,
                            max_size=n_agents))
    grid, cells = draw(_grid_and_cells(n_agents + sum(n_goals)))
    digit = st.integers(1, 9)
    in_order = st.lists(digit, min_size=n_agents, max_size=n_agents,
                        unique=True).map(sorted)
    any_order = st.lists(digit, min_size=n_agents, max_size=n_agents)
    ids = draw(any_order if _rarely(draw) else in_order)
    shared = {k: draw(v) for k, v in _SETTINGS.items()}
    agents, own_settings, expressible = [], [], True
    rest = iter(cells[n_agents:])
    for k, aid in enumerate(ids):
        goals = sorted(next(rest) for _ in range(n_goals[k]))
        weights = [1.0] * len(goals)
        if _rarely(draw):
            weights = draw(st.lists(st.sampled_from([1.0, 3.0]),
                                    min_size=len(goals), max_size=len(goals)))
        own = dict(shared)
        if _rarely(draw):
            key = draw(st.sampled_from(sorted(_SETTINGS)))
            own[key] = draw(_SETTINGS[key])
        chase = (ids[0],) if _rarely(draw) else ()
        agents.append(AgentSpec(aid, cells[k], list(zip(goals, weights)),
                                chase=chase, **own))
        own_settings.append(tuple(own.values()))
        expressible &= len(set(weights)) == 1 and not chase
    world = WorldSpec(
        grid,
        tuple(agents),
        t_max=draw(st.integers(1, 500)),
        schedule=draw(st.sampled_from(SCHEDULES)),
        seed=draw(st.integers(0, 2**32)),
    )
    expressible &= (
        _distinct(cells) and ids == sorted(set(ids)) and len(set(own_settings)) == 1
    )
    return world, expressible


def _assert_round_trip_or_refusal(obj, expressible):
    try:
        text = serialize_scenario(obj)
    except ValueError:
        assert not expressible
        return
    assert expressible
    parsed = parse_scenario(text)
    assert parsed == obj
    assert serialize_scenario(parsed) == text


@settings(max_examples=400, deadline=None)
@given(single_scenarios())
def test_random_scenarios_round_trip_or_are_refused(case):
    _assert_round_trip_or_refusal(*case)


@settings(max_examples=300, deadline=None)
@given(world_specs())
def test_random_worlds_round_trip_or_are_refused(case):
    _assert_round_trip_or_refusal(*case)


# -- every header key in both kinds of file -----------------------------------

_UNREADABLE = object()
_BOTH, _NEITHER = ("single", "world"), ()
_NAN = float("nan")
_GRIDS = {"single": "S.G\n..G\n", "world": "1.a\n2.b\n"}

# key: the field it sets, the kinds of file that hold it, and its values as
# (text, value read, the kinds of file whose objects accept the value); a
# kind that does not hold the key checks it as the kind that does
_HEADER = {
    "horizon": ("horizon", ("single",), [
        ("auto", None, _BOTH), ("1", 1, _BOTH), ("7", 7, _BOTH), ("0", 0, _NEITHER),
        ("-2", -2, _NEITHER), ("soon", _UNREADABLE, _NEITHER)]),
    "kappa": ("sharpness", _BOTH, [
        ("0.8", 0.8, _BOTH), ("0.05", 0.05, _BOTH), ("1", 1.0, _NEITHER),
        ("0", 0.0, _NEITHER), ("nan", _NAN, _NEITHER), ("x", _UNREADABLE, _NEITHER)]),
    "lambda": ("stiffness", _BOTH, [
        ("0", 0.0, _BOTH), ("0.5", 0.5, _BOTH), ("1", 1.0, _BOTH),
        ("1.5", 1.5, _NEITHER), ("-0.1", -0.1, _NEITHER), ("nan", _NAN, _NEITHER)]),
    "seed": ("seed", _BOTH, [
        ("0", 0, _BOTH), ("7", 7, _BOTH), ("-1", -1, _NEITHER),
        ("1.5", _UNREADABLE, _NEITHER)]),
    "policy": ("policy", _BOTH, [
        *((p, p, _BOTH) for p in POLICIES), ("bogus", "bogus", _NEITHER)]),
    "schedule": ("schedule", ("world",), [
        *((s, s, _BOTH) for s in SCHEDULES), ("bogus", "bogus", _NEITHER)]),
    "t_max": ("t_max", _BOTH, [
        ("2", 2, _BOTH), ("40", 40, _BOTH), ("1", 1, ("world",)), ("0", 0, _NEITHER),
        ("-3", -3, _NEITHER), ("2.5", _UNREADABLE, _NEITHER)]),
    "goal_weights": ("goals", ("single",), [
        ("1,3", (1.0, 3.0), _BOTH), ("2", (2.0,), _BOTH), ("nan,1", (_NAN, 1.0), _BOTH),
        ("1,x", _UNREADABLE, _NEITHER)]),
}


@st.composite
def headers(draw):
    """A kind of file and some distinct header keys in any order, each with
    a value in or out of range, or unreadable."""
    keys = draw(st.permutations(sorted(_HEADER)))[: draw(st.integers(0, len(_HEADER)))]
    return draw(st.sampled_from(_BOTH)), [
        (key, draw(st.sampled_from(_HEADER[key][2]))) for key in keys
    ]


def _refused_at(text: str, line: int) -> None:
    with pytest.raises(ScenarioParseError) as err:
        parse_scenario(text)
    assert err.value.line == line


@settings(max_examples=500, deadline=None)
@given(headers())
def test_every_header_value_is_carried_or_refused_at_its_line(case):
    kind, picks = case
    text = "".join(f"{key} = {text}\n" for key, (text, _, _) in picks)
    text += "---\n" + _GRIDS[kind]
    lines = {key: n for n, (key, _) in enumerate(picks, 1)}
    # refused in this order: the first value that cannot be read, the first
    # value out of range, the first key the file's kind does not hold
    for refused in (
        [key for key, (_, value, _) in picks if value is _UNREADABLE],
        [key for key, (_, _, accepted) in picks if kind not in accepted],
        [key for key, _ in picks if kind not in _HEADER[key][1]],
    ):
        if refused:
            _refused_at(text, lines[refused[0]])
            return
    values = {key: value for key, (_, value, _) in picks}
    weights = values.pop("goal_weights", (1.0, 1.0))
    if len(weights) != 2:
        _refused_at(text, lines["goal_weights"])
        return
    if not all(np.isfinite(weights)):
        _refused_at(text, lines["goal_weights"])
        return
    parsed = parse_scenario(text)
    if kind == "single":
        holders = [parsed]
        total = sum(weights)
        assert parsed.goals == tuple(zip([(0, 2), (1, 2)], (w / total for w in weights)))
    else:
        holders = [*parsed.agents, parsed]
        assert [a.goals for a in parsed.agents] == [(((0, 2), 1.0),), (((1, 2), 1.0),)]
    for key, (name, kinds, _) in _HEADER.items():
        if kind not in kinds or key == "goal_weights":
            continue
        for obj in (h for h in holders if hasattr(h, name)):
            # a key left out takes the default of the object it sets; a
            # world's budget, which has none, is four sweeps of the map
            default = {f.name: f.default for f in fields(obj)}[name]
            want = values.get(key, 24 if default is MISSING else default)
            assert getattr(obj, name) == want, key
