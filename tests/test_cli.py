from __future__ import annotations

import io
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path as FsPath

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flowplan import GridMap, Path, validate_path
from flowplan import scenarios
from flowplan.cli import _build_parser, main
from flowplan.grid import ACTION_BY_NAME
from flowplan.scenario_io import parse_scenario


@pytest.fixture
def empty5_file(tmp_path) -> str:
    f = tmp_path / "empty5.txt"
    f.write_text(scenarios.load("empty5"), encoding="utf-8")
    return str(f)


@pytest.fixture
def corridor_file(tmp_path) -> str:
    f = tmp_path / "corridor.txt"
    f.write_text(scenarios.load("corridor"), encoding="utf-8")
    return str(f)


def parse_csv_path(text: str) -> Path:
    lines = [ln for ln in text.strip().splitlines() if not ln.startswith("#")]
    assert lines[0] == "t,row,col,action"
    steps = []
    for line in lines[1:]:
        t, row, col, action = line.split(",")
        index = None if action == "-" else ACTION_BY_NAME[action].index
        steps.append((int(t), (int(row), int(col)), index))
    return Path(tuple(steps), False)


def test_mintime_prints_five(capsys, empty5_file):
    assert main(["mintime", empty5_file]) == 0
    assert capsys.readouterr().out.strip() == "5"


def test_mintime_ignores_horizon_overrides(tmp_path, capsys):
    f = tmp_path / "fixed.txt"
    f.write_text(scenarios.load("empty5").replace("auto", "9"), encoding="utf-8")
    assert main(["mintime", str(f)]) == 0
    assert main(["mintime", str(f), "--horizon", "3"]) == 0
    assert capsys.readouterr().out.split() == ["5", "5"]


def test_mintime_unreachable_exits_one(tmp_path, capsys):
    f = tmp_path / "walled.txt"
    f.write_text("---\nS#G\n.#.\n", encoding="utf-8")
    assert main(["mintime", str(f)]) == 1
    assert "no feasible path" in capsys.readouterr().err


def test_plan_csv_revalidates_as_a_path(capsys, empty5_file):
    assert main(["plan", empty5_file]) == 0
    out = capsys.readouterr().out
    path = parse_csv_path(out)
    validate_path(path, GridMap.empty(5, 5))
    assert path.steps[0] == (1, (0, 0), ACTION_BY_NAME["down-right"].index)
    assert path.steps[-1] == (5, (4, 4), None)


def test_plan_below_minimum_time_exits_one(capsys, empty5_file):
    assert main(["plan", empty5_file, "--horizon", "2"]) == 1
    err = capsys.readouterr().err
    assert "no feasible path" in err


def test_sample_on_a_long_corridor_exits_zero(tmp_path, capsys):
    f = tmp_path / "long.txt"
    f.write_text("---\n" + "." * 700 + "\nS" + "." * 698 + "G\n" + "." * 700 + "\n")
    assert main(["sample", str(f)]) == 0
    path = parse_csv_path(capsys.readouterr().out)
    validate_path(path, GridMap.empty(3, 700))
    assert path.steps[0][1] == (1, 0)
    assert path.steps[-1] == (700, (1, 699), None)


def test_plan_is_byte_identical_across_runs(capsys, empty5_file):
    assert main(["plan", empty5_file]) == 0
    first = capsys.readouterr().out
    assert main(["plan", empty5_file]) == 0
    second = capsys.readouterr().out
    assert first == second


def test_non_finite_goal_weights_exit_two(tmp_path, capsys):
    f = tmp_path / "nan.txt"
    f.write_text("goal_weights = nan,1\n---\nS.G\n..G\n", encoding="utf-8")
    assert main(["plan", str(f)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "scenario error: line 1: goal weights must be finite, got nan\n"
    )


def test_underflowing_goal_weights_exit_two(tmp_path, capsys):
    f = tmp_path / "tiny.txt"
    f.write_text("goal_weights = 1e308,1e-300\n---\nS.G\n..G\n", encoding="utf-8")
    assert main(["plan", str(f)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "scenario error: line 1: goal weight of (1, 2) underflows to 0 against the "
        "total\n"
    )


@pytest.mark.parametrize("weights", ["nan,1", "0,1", "-1,1", "1e308,1e-300"])
def test_bad_goal_weights_exit_two_at_their_line(tmp_path, capsys, weights):
    f = tmp_path / "weights.txt"
    f.write_text(f"goal_weights = {weights}\n---\nS.G\n..G\n", encoding="utf-8")
    assert main(["plan", str(f)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("scenario error: line 1: goal weight")


def test_one_process_answers_as_fresh_ones(capsys, empty5_file):
    calls = (["warp", "x"], ["plan", empty5_file], ["mintime", empty5_file])

    def run(argv):
        code = main(argv)
        return code, capsys.readouterr().out

    fresh = []
    for argv in calls:
        _build_parser.cache_clear()
        fresh.append(run(argv))
    # back to back on the parser the first call built
    assert [run(argv) for argv in calls] == fresh
    assert [code for code, _ in fresh] == [2, 0, 0]
    assert fresh[2][1] == "5\n"
    assert _build_parser.cache_info().misses == 1


def test_plan_rejects_multi_agent_files(capsys, corridor_file):
    assert main(["plan", corridor_file]) == 2
    assert "single-agent" in capsys.readouterr().err


def test_parse_errors_exit_two(tmp_path, capsys):
    f = tmp_path / "bad.txt"
    f.write_text("speed = 11\n---\nS.G\n", encoding="utf-8")
    assert main(["mintime", str(f)]) == 2
    assert "scenario error" in capsys.readouterr().err


def test_kappa_one_is_refused_at_its_header_line(tmp_path, capsys):
    f = tmp_path / "sharp.txt"
    f.write_text("horizon = auto\nkappa = 1\n---\nS.G\n", encoding="utf-8")
    assert main(["plan", str(f)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("scenario error: line 2: sharpness must be in (0, 1)")
    assert "keeps no outward move" in err


@pytest.mark.parametrize(
    "line", ["seed = -1", "lambda = 1.5", "lambda = nan", "policy = bogus"],
    ids=["seed", "lambda-1.5", "lambda-nan", "policy"],
)
def test_bad_seed_and_stiffness_exit_two_at_their_header_line(tmp_path, capsys, line):
    f = tmp_path / "bad.txt"
    f.write_text(f"horizon = auto\n{line}\n---\nS.G\n", encoding="utf-8")
    assert main(["sample", str(f)]) == 2
    assert capsys.readouterr().err.startswith("scenario error: line 2: ")


def test_a_negative_seed_option_exits_two(capsys, empty5_file):
    assert main(["sample", empty5_file, "--seed", "-1"]) == 2
    assert "seed must be a non-negative integer, got -1" in capsys.readouterr().err


def test_missing_file_exits_two(capsys):
    assert main(["plan", "/nonexistent/path.txt"]) == 2


def test_unreadable_file_and_unwritable_out_dir_exit_two(
    tmp_path, capsys, empty5_file
):
    assert main(["plan", str(tmp_path)]) == 2
    assert "Is a directory" in capsys.readouterr().err
    blocker = tmp_path / "file"
    blocker.write_text("", encoding="utf-8")
    assert main(["flows", empty5_file, "--out-dir", str(blocker / "frames")]) == 2
    assert "Not a directory" in capsys.readouterr().err


def test_usage_error_exits_two(capsys):
    assert main(["warp", "x"]) == 2


def test_flows_writes_frames_per_slice(tmp_path, capsys, empty5_file):
    out = tmp_path / "frames"
    assert main(["flows", empty5_file, "--out-dir", str(out)]) == 0
    files = sorted(p.name for p in out.iterdir())
    # horizon 5 -> joint tensors at t = 1..4 for three kinds
    assert len(files) == 12
    assert "forward_t001.txt" in files and "posterior_t004.txt" in files
    text = (out / "backward_t001.txt").read_text(encoding="utf-8")
    assert len(text.splitlines()) == 5


def test_flows_pixmap_format(tmp_path, empty5_file, capsys):
    out = tmp_path / "frames"
    assert main(["flows", empty5_file, "--out-dir", str(out), "--format", "pixmap"]) == 0
    ppm = (out / "forward_t001.ppm").read_bytes()
    assert ppm.startswith(b"P6\n5 5\n255\n")


def test_flows_at_horizon_one_writes_no_frame(tmp_path, capsys):
    # one slice: no joint tensor to draw, as at an infeasible horizon
    f = tmp_path / "one.txt"
    f.write_text("horizon = 1\n---\nS.G\n", encoding="utf-8")
    out = tmp_path / "frames"
    assert main(["flows", str(f), "--out-dir", str(out)]) == 0
    assert list(out.iterdir()) == []
    assert "wrote frames for horizon 1" in capsys.readouterr().out
    assert main(["plan", str(f)]) == 1


def test_sample_emits_seeded_blocks(capsys, empty5_file):
    assert main(["sample", empty5_file, "--n", "3", "--seed", "5"]) == 0
    out = capsys.readouterr().out
    assert out.count("# path") == 3
    assert "seed 5" in out and "seed 7" in out


@pytest.mark.parametrize("n", ["0", "-2"])
def test_sample_refuses_fewer_than_one_path(capsys, empty5_file, n):
    assert main(["sample", empty5_file, "--n", n]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "--n must be at least 1" in captured.err


def test_simulate_writes_trace_and_agent_csv(tmp_path, capsys, corridor_file):
    out = tmp_path / "sim"
    assert main(["simulate", corridor_file, "--out-dir", str(out)]) == 0
    names = sorted(p.name for p in out.iterdir())
    assert "agent_1.csv" in names and "agent_2.csv" in names
    assert any(n.startswith("trace_t001") for n in names)
    ws_grid = GridMap.empty(5, 7).with_obstacles(
        [(0, j) for j in range(7)]
        + [(4, j) for j in range(7)]
        + [(1, 0), (1, 6), (3, 0), (3, 6)]
        + [(2, 0), (2, 1), (2, 2), (2, 4), (2, 5), (2, 6)]
    )
    for agent_file in ("agent_1.csv", "agent_2.csv"):
        path = parse_csv_path((out / agent_file).read_text(encoding="utf-8"))
        validate_path(path, ws_grid)
    first_frame = (out / "trace_t001.txt").read_text(encoding="utf-8")
    assert "1" in first_frame and "2" in first_frame and "a" in first_frame
    assert first_frame == "#######\n#1...2#\n###.###\n#b...a#\n#######\n"


@pytest.mark.parametrize("option", [["--policy", "abort"], ["--horizon", "3"]],
                         ids=["policy", "horizon"])
def test_simulate_refuses_the_single_agent_options(tmp_path, capsys, corridor_file,
                                                   option):
    # they used to be accepted and ignored: the trace came out as without them
    out = tmp_path / "sim"
    assert main(["simulate", corridor_file, "--out-dir", str(out), *option]) == 2
    assert f"unrecognized arguments: {' '.join(option)}" in capsys.readouterr().err
    assert not out.exists()


def test_simulate_rejects_single_agent_files(capsys, empty5_file):
    assert main(["simulate", empty5_file, "--out-dir", "/tmp/nowhere"]) == 2


def test_time_budgets_below_their_minimum_exit_two(tmp_path, capsys, corridor_file):
    text = open(corridor_file, encoding="utf-8").read()
    multi = tmp_path / "multi.txt"
    multi.write_text(text.replace("t_max = 40", "t_max = -3"), encoding="utf-8")
    out = tmp_path / "sim"
    assert main(["simulate", str(multi), "--out-dir", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "scenario error: line 1: t_max must be at least 1, got -3\n"
    assert not out.exists()
    single = tmp_path / "single.txt"
    single.write_text("t_max = 1\n---\nS.G\n", encoding="utf-8")
    assert main(["plan", str(single)]) == 2
    assert capsys.readouterr().err == (
        "scenario error: line 1: t_max must be at least 2, got 1\n"
    )


# header values (in range, out of range); the parser keeps the text as written
_HEADER_VALUES = {
    "horizon": (["auto", "1", "2", "3", "6", "12", "30"], ["-1", "0"]),
    "kappa": (["0.8", "0.5", "0.05", "0.9999999999999999", "1e-300", "5e-324"],
              ["0", "1", "-0.5", "1.5", "nan", "inf"]),
    "lambda": (["0", "0.3", "1", "5e-324", "0.9999999999999999"],
               ["-0.1", "1.5", "nan", "inf"]),
    "seed": (["0", "7", "18446744073709551617"], ["-1"]),
    "t_max": (["2", "3", "8", "1000000"], ["-5", "0", "1"]),
    "policy": (["abort", "wait", "sample"], []),
    # a multi-agent key: every single-agent file refuses it at its line
    "schedule": (["fixed", "random"], ["bogus"]),
}
_WEIGHTS = (["1", "0.5", "3", "1e300", "1e-300", "5e-324"], ["0", "-1", "nan", "inf"])


def _header_value(draw, values: tuple[list[str], list[str]]) -> str:
    inside, outside = values
    return draw(st.sampled_from(outside if outside and draw(st.integers(0, 4)) == 0
                                else inside))


@st.composite
def scenario_files(draw) -> str:
    """Small single-agent files, 1 x N and N x 1 included, with S and G
    anywhere (walled-off goals too) and header values in and out of range."""
    rows, cols = draw(
        st.sampled_from([(1, 2), (1, 6), (5, 1)])
        | st.tuples(st.integers(1, 5), st.integers(1, 5)).filter(lambda s: s != (1, 1))
    )
    cells = [(i, j) for i in range(rows) for j in range(cols)]
    chars = {cell: draw(st.sampled_from(".....#")) for cell in cells}
    marks = draw(st.lists(st.sampled_from(cells), min_size=2, max_size=4, unique=True))
    chars[marks[0]] = "S"
    for cell in marks[1:]:
        chars[cell] = "G"
    header = []
    for key, values in _HEADER_VALUES.items():
        if draw(st.booleans()):
            header.append(f"{key} = {_header_value(draw, values)}")
    if draw(st.booleans()):
        n = len(marks) - 1 + draw(st.sampled_from([0, 0, 0, 1, -1]))
        weights = [_header_value(draw, _WEIGHTS) for _ in range(n)]
        header.append("goal_weights = " + ",".join(weights))
    body = "\n".join(
        "".join(chars[i, j] for j in range(cols)) for i in range(rows)
    )
    return "\n".join(header) + "\n---\n" + body + "\n"


@settings(max_examples=200, deadline=None)
@given(scenario_files())
def test_every_generated_file_exits_zero_one_or_two(text):
    with tempfile.TemporaryDirectory() as tmp:
        f = FsPath(tmp) / "scenario.txt"
        f.write_text(text, encoding="utf-8")
        for argv in (
            ["plan", str(f)],
            ["mintime", str(f)],
            ["sample", str(f)],
            ["flows", str(f), "--out-dir", str(FsPath(tmp) / "frames")],
        ):
            out = io.StringIO()
            with redirect_stdout(out), redirect_stderr(io.StringIO()):
                code = main(argv)
            assert code in (0, 1, 2), argv
            if argv[0] == "plan" and code == 0:
                scenario = parse_scenario(text)
                path = parse_csv_path(out.getvalue())
                validate_path(path, scenario.grid)
                assert path.steps[0][1] == scenario.start_cell
