"""Span recording for the traced run, installed from the benchmark's files.

``Recorder.install`` replaces each traced flowplan function with a wrapper
in every module namespace that holds it, because the package looks names
up in several ways: ``build_kernel`` is imported by name into ``planner``
and ``multiagent``, ``step_world`` and ``dynamic_map`` are module globals
of ``multiagent``, and ``engine.*`` is reached as an attribute.
``flowplan.oracle`` is the checker and is never patched.  Spans stay in
memory, each with its parent, until the run writes them out.
"""

from __future__ import annotations

import functools
from contextlib import contextmanager
import statistics
from dataclasses import dataclass
from time import perf_counter_ns
from typing import Any, Callable

import flowplan
from flowplan import cli, engine, grid, multiagent, planner, render, scenario_io

#: modules whose namespaces are patched; the package re-exports most names
NAMESPACES = (flowplan, grid, engine, planner, multiagent, scenario_io, render, cli)

ROOT = "op"


def _grid_cells(args, result) -> int:
    # forward_step(f_prev, kernel, p) / backward_step(b_next, kernel, p)
    rows, cols = args[0].values.shape[:2]
    return rows * cols


def _still_and_steps(args, result) -> tuple[int, int]:
    actions = [a for p in result.paths.values() for _, _, a in p.steps if a is not None]
    return sum(a == 0 for a in actions), len(actions)


#: span name -> (module, attribute, info hook); a hook turns the call's
#: arguments and result into the numbers the per-layer metrics need
TRACED: dict[str, tuple[Any, str, Callable | None]] = {
    "grid.build_kernel": (grid, "build_kernel", None),
    "engine.min_time": (engine, "min_time", None),
    "engine.backward_flow": (engine, "backward_flow", lambda a, r: len(r)),
    "engine.backward_terminal": (engine, "backward_terminal", None),
    "engine.backward_step": (engine, "backward_step", _grid_cells),
    "engine.forward_step": (engine, "forward_step", _grid_cells),
    "engine.forward_final": (engine, "forward_final", None),
    "engine.initial_forward": (engine, "initial_forward", None),
    "engine.posterior": (engine, "posterior", None),
    "engine.run_flows": (engine, "run_flows", None),
    "planner.build_setup": (planner, "build_setup", None),
    "planner.resolve_horizon": (planner, "resolve_horizon", lambda a, r: r),
    "planner.greedy_plan": (planner, "greedy_plan", lambda a, r: r.t_used),
    "planner.sample_path": (planner, "sample_path", lambda a, r: r.t_used),
    "planner.scenario_flows": (planner, "scenario_flows", None),
    "multiagent.simulate": (multiagent, "simulate", _still_and_steps),
    "multiagent.step_world": (multiagent, "step_world", None),
    "multiagent.dynamic_map": (multiagent, "dynamic_map", None),
    "multiagent.plan_step": (multiagent._AgentRunner, "plan_step", None),
    "scenario_io.parse_scenario": (scenario_io, "parse_scenario", None),
    "render.render_frame": (render, "render_frame", None),
    "cli.main": (cli, "main", None),
}


@dataclass
class Span:
    name: str
    parent: int  # index of the parent span, -1 for an op root
    start_ns: int
    end_ns: int
    info: Any = None


class Recorder:
    """Collects spans; wrappers are live only between install and uninstall."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._saved: list[tuple[Any, str, Any]] = []

    def _open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(Span(name, parent, perf_counter_ns(), 0))
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def _close(self, sid: int) -> None:
        self.spans[sid].end_ns = perf_counter_ns()
        self._stack.pop()

    @contextmanager
    def root(self, kind: str):
        """One op; every traced call nests under it."""
        sid = self._open(ROOT)
        self.spans[sid].info = kind
        try:
            yield
        finally:
            self._close(sid)

    def _wrap(self, name: str, fn: Callable, hook: Callable | None) -> Callable:
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(sid)
            if hook is not None:
                self.spans[sid].info = hook(args, result)
            return result

        return traced

    def install(self) -> None:
        for name, (owner, attr, hook) in TRACED.items():
            original = getattr(owner, attr)
            wrapper = self._wrap(name, original, hook)
            homes = [owner] if isinstance(owner, type) else NAMESPACES
            for home in homes:
                if getattr(home, attr, None) is original:
                    self._saved.append((home, attr, original))
                    setattr(home, attr, wrapper)

    def uninstall(self) -> None:
        for home, attr, original in reversed(self._saved):
            setattr(home, attr, original)
        self._saved.clear()


def self_times(spans: list[Span]) -> list[int]:
    """Each span's duration minus the part of it its child spans cover."""
    children: dict[int, list[tuple[int, int]]] = {}
    for s in spans:
        if s.parent >= 0:
            children.setdefault(s.parent, []).append((s.start_ns, s.end_ns))
    out = []
    for sid, s in enumerate(spans):
        covered = 0
        reach = s.start_ns
        for lo, hi in sorted(children.get(sid, ())):
            lo, hi = max(lo, reach), min(hi, s.end_ns)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append(s.end_ns - s.start_ns - covered)
    return out


#: bytes one forward or backward step touches per (cell, action) entry,
#: computed from the array expressions, not measured: each of the 9 stencil
#: offsets reads a stencil slice and a value slice, writes and reads the
#: product temporary and reads and writes the accumulator (6 passes), then
#: the action mix reads and writes once, the sum reads once and the
#: normalization reads and writes once (5 passes); 8-byte floats
BYTES_PER_CELL_ACTION = (9 * 6 + 5) * 8

_STEPS = ("engine.forward_step", "engine.backward_step")


def layer_metrics(spans: list[Span]) -> dict[str, float]:
    """Per-layer metrics of a traced run.

    ``<span>.self_ms`` and ``<span>.calls`` are per op (summed over the
    run, divided by the number of traced ops).
    """
    selfs = self_times(spans)
    n_ops = sum(s.name == ROOT for s in spans) or 1
    by_name: dict[str, list[int]] = {}
    for sid, s in enumerate(spans):
        by_name.setdefault(s.name, []).append(sid)

    out: dict[str, float] = {}
    for name in TRACED:
        ids = by_name.get(name, [])
        out[f"{name}.self_ms"] = sum(selfs[i] for i in ids) / 1e6 / n_ops
        out[f"{name}.calls"] = len(ids) / n_ops

    # a step that raised has no size and is left out
    steps = [
        i for name in _STEPS for i in by_name.get(name, [])
        if spans[i].info is not None
    ]
    step_cell_actions = sum(spans[i].info * 9 for i in steps)
    step_self_s = sum(selfs[i] for i in steps) / 1e9
    out["engine.cell_actions_per_s"] = (
        step_cell_actions / step_self_s if step_self_s else 0.0
    )
    out["engine.bytes_per_step_computed"] = (
        step_cell_actions * BYTES_PER_CELL_ACTION / len(steps) if steps else 0.0
    )

    ratios = []
    for name in ("planner.greedy_plan", "planner.sample_path"):
        for sid in by_name.get(name, []):
            horizons = [
                spans[c].info for c in by_name.get("planner.resolve_horizon", [])
                if spans[c].parent == sid
            ]
            if horizons and spans[sid].info is not None:  # None: it raised
                ratios.append(spans[sid].info / horizons[0])
    out["planner.committed_per_horizon"] = statistics.fmean(ratios) if ratios else 0.0

    rounds = len(by_name.get("multiagent.plan_step", []))
    slices = sum(
        spans[i].info for i in by_name.get("engine.backward_flow", [])
        if spans[spans[i].parent].name == "multiagent.plan_step"
    )
    out["multiagent.agent_rounds"] = rounds / n_ops
    out["multiagent.backward_slices_per_agent_round"] = slices / rounds if rounds else 0.0
    worlds = by_name.get("multiagent.step_world", [])
    out["multiagent.step_world.ms_p50"] = (
        statistics.median((spans[i].end_ns - spans[i].start_ns) / 1e6 for i in worlds)
        if worlds else 0.0
    )
    episodes = [spans[i].info for i in by_name.get("multiagent.simulate", [])]
    agent_steps = sum(n for _, n in episodes)
    out["multiagent.wait_share"] = (
        sum(w for w, _ in episodes) / agent_steps if agent_steps else 0.0
    )

    roots = by_name.get(ROOT, [])
    op_ns = sum(spans[i].end_ns - spans[i].start_ns for i in roots)
    out["trace.coverage"] = 1.0 - sum(selfs[i] for i in roots) / op_ns if op_ns else 0.0
    return out


def dump(spans: list[Span]) -> dict:
    """Spans as plain data: names once, then [parent, name, start, end] rows."""
    names = sorted({s.name for s in spans})
    index = {n: k for k, n in enumerate(names)}
    return {
        "names": names,
        "rows": [[s.parent, index[s.name], s.start_ns, s.end_ns] for s in spans],
    }
