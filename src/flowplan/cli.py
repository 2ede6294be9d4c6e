"""Command-line front end.

Subcommands::

    flowplan plan <file>                greedy path as CSV on stdout
    flowplan mintime <file>             print the minimum feasible horizon
    flowplan flows <file> --out-dir D   write per-slice frames
    flowplan sample <file> --n K        K posterior-sampled paths as CSV
    flowplan simulate <file> --out-dir D  multi-agent trace + per-agent CSV

Exit codes: 0 success, 1 no feasible plan (unreachable, dead posterior, or
simulation timeout), 2 usage or scenario errors.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace
from functools import lru_cache
from pathlib import Path as FsPath

from . import multiagent, planner, render, scenario_io
from .errors import (
    InvalidGoalError,
    NoFeasiblePathError,
    PlanningError,
    ScenarioParseError,
    UnreachableError,
)
from .grid import ACTIONS

EXIT_OK = 0
EXIT_INFEASIBLE = 1
EXIT_USAGE = 2


@lru_cache(maxsize=1)
def _build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process; parsing leaves it as
    it was."""
    parser = argparse.ArgumentParser(
        prog="flowplan",
        description="grid path planning driven by probability flows",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("file", help="scenario file")
        p.add_argument("--horizon", type=int, help="override the header horizon")
        p.add_argument(
            "--policy",
            choices=planner.POLICIES,
            help="what to do when the posterior vanishes",
        )

    p_plan = sub.add_parser("plan", help="greedy path as CSV")
    add_common(p_plan)

    p_min = sub.add_parser("mintime", help="print the minimum feasible horizon")
    add_common(p_min)

    p_flows = sub.add_parser("flows", help="write per-slice message frames")
    add_common(p_flows)
    p_flows.add_argument("--out-dir", required=True)
    p_flows.add_argument("--format", choices=("ascii", "pixmap"), default="ascii")

    p_sample = sub.add_parser("sample", help="posterior-sampled paths as CSV")
    add_common(p_sample)
    p_sample.add_argument("--n", type=int, default=1, help="number of paths")
    p_sample.add_argument("--seed", type=int, help="override the header seed")

    p_sim = sub.add_parser("simulate", help="run a multi-agent scenario")
    p_sim.add_argument("file", help="scenario file")
    p_sim.add_argument("--out-dir", required=True)
    p_sim.add_argument("--seed", type=int, help="override the header seed")
    return parser


def _parse(args) -> planner.Scenario | scenario_io.WorldSpec:
    return scenario_io.parse_scenario(FsPath(args.file).read_text(encoding="utf-8"))


def _load(args) -> planner.Scenario:
    scenario = _parse(args)
    if not isinstance(scenario, planner.Scenario):
        raise ScenarioParseError("this command needs a single-agent scenario")
    options = {"horizon": args.horizon, "policy": args.policy,
               "seed": getattr(args, "seed", None)}
    overrides = {k: v for k, v in options.items() if v is not None}
    return replace(scenario, **overrides) if overrides else scenario


def _path_csv(path: planner.Path) -> str:
    lines = ["t,row,col,action"]
    for t, (i, j), action in path.steps:
        name = "-" if action is None else ACTIONS[action].name
        lines.append(f"{t},{i},{j},{name}")
    return "\n".join(lines) + "\n"


def _cmd_plan(args) -> int:
    scenario = _load(args)
    path = planner.greedy_plan(scenario)
    sys.stdout.write(_path_csv(path))
    return EXIT_OK


def _cmd_mintime(args) -> int:
    scenario = _load(args)
    # the minimum, even when the header or --horizon fixes a horizon
    print(planner.resolve_horizon(replace(scenario, horizon=None)))
    return EXIT_OK


def _cmd_flows(args) -> int:
    scenario = _load(args)
    flows = planner.scenario_flows(scenario)
    out = FsPath(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    ext = "txt" if args.format == "ascii" else "ppm"
    for kind, messages in (
        ("forward", flows.forward),
        ("backward", flows.backward),
        ("posterior", flows.posterior),
    ):
        for t, message in enumerate(messages, start=1):
            frame = render.render_frame(message, scenario.grid, args.format)
            (out / f"{kind}_t{t:03d}.{ext}").write_bytes(frame)
    print(f"wrote frames for horizon {flows.horizon} to {out}")
    return EXIT_OK


def _cmd_sample(args) -> int:
    if args.n < 1:
        raise ValueError(f"--n must be at least 1, got {args.n}")
    scenario = _load(args)
    base_seed = scenario.seed
    for k in range(args.n):
        path = planner.sample_path(replace(scenario, seed=base_seed + k))
        sys.stdout.write(f"# path {k} seed {base_seed + k}\n")
        sys.stdout.write(_path_csv(path))
    return EXIT_OK


def _world_frame(world, ws: scenario_io.WorldSpec) -> str:
    rows = scenario_io._grid_chars(ws.grid)
    for spec in ws.agents:
        for cell, _ in spec.goals:
            rows[cell[0]][cell[1]] = chr(ord("a") + spec.agent_id - 1)
    for snap in world.agents:
        rows[snap.cell[0]][snap.cell[1]] = str(snap.agent_id)
    return "\n".join("".join(r) for r in rows) + "\n"


def _cmd_simulate(args) -> int:
    parsed = _parse(args)
    if not isinstance(parsed, scenario_io.WorldSpec):
        raise ScenarioParseError("simulate needs a multi-agent scenario")
    seed = args.seed if args.seed is not None else parsed.seed
    result = multiagent.simulate(
        parsed.agents, parsed.grid, parsed.t_max, parsed.schedule, seed
    )
    out = FsPath(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    for world in result.states:
        frame = _world_frame(world, parsed)
        (out / f"trace_t{world.time:03d}.txt").write_text(frame, encoding="utf-8")
    for aid, path in sorted(result.paths.items()):
        (out / f"agent_{aid}.csv").write_text(_path_csv(path), encoding="utf-8")
    status = "timed out" if result.timed_out else "all arrived"
    print(f"{status} at t={result.t_final}; trace in {out}")
    return EXIT_INFEASIBLE if result.timed_out else EXIT_OK


_COMMANDS = {
    "plan": _cmd_plan,
    "mintime": _cmd_mintime,
    "flows": _cmd_flows,
    "sample": _cmd_sample,
    "simulate": _cmd_simulate,
}


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code is not None else EXIT_USAGE
    try:
        return _COMMANDS[args.command](args)
    except (NoFeasiblePathError, UnreachableError) as exc:
        print(f"no feasible path: {exc}", file=sys.stderr)
        return EXIT_INFEASIBLE
    except (ScenarioParseError, InvalidGoalError) as exc:
        print(f"scenario error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except FileNotFoundError as exc:
        print(f"cannot read scenario: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (OSError, ValueError, PlanningError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
