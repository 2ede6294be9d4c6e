"""Closed-loop benchmark of flowplan's public API.

    python3 perfbench/run.py --workload {open100,batch,corridor,crowd} \
        --seed N --seconds S --trace {0,1}

One single-threaded process, one client: the next op starts only after the
previous one finished.  Ops run until their timed wall time adds up to
``--seconds``; every op's output is checked outside the timed region.
``--trace 0`` reports the end-to-end metrics; ``--trace 1`` runs each op
once without and once with span wrappers (alternating which goes first)
and reports the per-layer metrics.  The last stdout line is one JSON
object; the lines before it list every metric with its unit plus the
provenance, and the full result (spans included) is written under
``perfbench/out/``.  The program is imported from ``src/`` next to this
directory; without it the benchmark exits 1 and prints no result.
"""

import time

_T0 = time.perf_counter()

import os  # noqa: E402

# pin the BLAS pools before numpy loads: the run is single-threaded
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from collections import Counter  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = Path(__file__).resolve().parent / "out"

#: end-to-end metrics: name -> (unit, better); measured with tracing off
END_TO_END = {
    "setup_s": ("s", "lower"),
    "ops_per_s": ("1/s", "higher"),
    "op_ms_p50": ("ms", "lower"),
    "op_ms_tail": ("ms", "lower"),
    "pass_share": ("share", "higher"),
    "peak_rss_mb": ("MB", "lower"),
    "makespan_slices": ("slices", "lower"),
}

#: per-layer metrics in the last line of a traced run: the ones every
#: workload exercises (the full table is on the line before it)
PER_LAYER = {
    "grid.build_kernel.self_ms": ("ms", "lower"),
    "grid.build_kernel.calls": ("count", "lower"),
    "engine.min_time.self_ms": ("ms", "lower"),
    "engine.min_time.calls": ("count", "lower"),
    "engine.backward_flow.self_ms": ("ms", "lower"),
    "engine.backward_step.self_ms": ("ms", "lower"),
    "engine.backward_step.calls": ("count", "lower"),
    "engine.forward_step.self_ms": ("ms", "lower"),
    "engine.forward_step.calls": ("count", "lower"),
    "engine.forward_final.self_ms": ("ms", "lower"),
    "engine.posterior.self_ms": ("ms", "lower"),
    "engine.posterior.calls": ("count", "lower"),
    "engine.cell_actions_per_s": ("1/s", "higher"),
    "engine.bytes_per_step_computed": ("bytes", "lower"),
    "trace.overhead_share": ("share", "lower"),
    "trace.coverage": ("share", "higher"),
}

#: set-up is repeated this many times per run; setup_s takes the median
SETUP_REPS = 3
#: an op that runs longer than this counts as failed
OP_TIMEOUT_S = 60.0
#: the tail is the highest of these percentiles with at least TAIL_BEYOND
#: samples beyond it
TAIL_LADDER = (99.9, 99.0, 90.0)
TAIL_BEYOND = 10


def _parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _import_program():
    """Import flowplan from this checkout's src/, never from elsewhere."""
    if not (SRC / "flowplan" / "__init__.py").is_file():
        sys.exit(f"perfbench: no flowplan sources at {SRC}")
    sys.path.insert(0, str(SRC))
    import flowplan

    if Path(flowplan.__file__).resolve().parent != SRC / "flowplan":
        sys.exit(f"perfbench: imported flowplan from {flowplan.__file__}")


class Tally:
    """Counts and samples of one measured loop."""

    def __init__(self):
        self.latencies: list[float] = []
        self.slices: list[int] = []
        self.failed = 0
        self.wrong = 0
        self.errors: Counter = Counter()

    def record(self, dt: float, error: str | None, wrong: bool, slices: int | None):
        self.latencies.append(dt)
        if error is None:
            self.slices.append(slices)
        else:
            self.failed += 1
            self.wrong += wrong
            self.errors[error[:120]] += 1


def timed_call(op):
    """Run one op; returns (seconds, result, error message)."""
    t = time.perf_counter()
    try:
        result, raised = op.run(), None
    except Exception as err:  # an op that raises counts as failed
        # keep only the message: the traceback would hold the op's arrays
        result, raised = None, f"{type(err).__name__}: {err}"
    return time.perf_counter() - t, result, raised


def verify(op, dt, result, raised, check_error) -> tuple[str | None, bool, int | None]:
    """(error, wrong output, slices) for one timed op, checked untimed."""
    if raised is not None:
        return raised, False, None
    if dt > OP_TIMEOUT_S:
        return f"timed out after {dt:.1f} s", False, None
    try:
        op.check(result)
    except check_error as err:
        return f"check: {err}", True, None
    return None, False, op.slices(result)


def set_up(workloads, name: str, seed: int) -> tuple[object, list[float]]:
    """Build the op stream and run its first op as a warm-up, several times;
    the last stream carries on into the timed loop."""
    times = []
    for _ in range(SETUP_REPS):
        t = time.perf_counter()
        stream = workloads.make(name, seed, str(OUT))
        warm = next(stream)
        warm.run()
        times.append(time.perf_counter() - t)
    return stream, times


def tail(latencies: list[float]) -> tuple[float, float, int]:
    """(value, percentile, samples beyond): the highest TAIL_LADDER
    percentile (nearest rank) with at least TAIL_BEYOND samples beyond it,
    or the median when none has that many."""
    ordered = sorted(latencies)
    n = len(ordered)
    for percentile in TAIL_LADDER:
        rank = math.ceil(n * percentile / 100)
        if n - rank >= TAIL_BEYOND:
            return ordered[rank - 1], percentile, n - rank
    return statistics.median(ordered), 50.0, n // 2


def measure(stream, seconds: float, check_error) -> Tally:
    tally = Tally()
    timed = 0.0
    while timed < seconds:
        op = next(stream)
        dt, result, raised = timed_call(op)
        timed += dt
        tally.record(dt, *verify(op, dt, result, raised, check_error))
        del result
    return tally


def end_to_end(tally: Tally, setup_s: float) -> tuple[dict, dict]:
    lat = tally.latencies
    passed = len(lat) - tally.failed
    value, percentile, beyond = tail(lat)
    metrics = {
        "setup_s": setup_s,
        "ops_per_s": passed / sum(lat),
        "op_ms_p50": statistics.median(lat) * 1e3,
        "op_ms_tail": value * 1e3,
        "pass_share": passed / len(lat),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "makespan_slices": statistics.fmean(tally.slices) if tally.slices else 0.0,
    }
    details = {
        "samples": len(lat),
        "tail_percentile": percentile,
        "tail_samples_beyond": beyond,
        "fail_share": tally.failed / len(lat),
    }
    return metrics, details


def measure_traced(stream, seconds: float, check_error, spans) -> tuple[Tally, dict, list]:
    """Each op once untraced and once traced, alternating which runs first."""
    tally = Tally()
    recorder = spans.Recorder()
    spent = {False: 0.0, True: 0.0}
    k = 0
    while spent[False] + spent[True] < seconds:
        op = next(stream)
        for traced in (False, True) if k % 2 == 0 else (True, False):
            if traced:
                recorder.install()
                try:
                    with recorder.root(op.kind):
                        dt, result, raised = timed_call(op)
                finally:
                    recorder.uninstall()
            else:
                dt, result, raised = timed_call(op)
            spent[traced] += dt
            tally.record(dt, *verify(op, dt, result, raised, check_error))
            del result
        k += 1
    layers = spans.layer_metrics(recorder.spans)
    layers["trace.overhead_share"] = 1.0 - spent[False] / spent[True]
    return tally, layers, recorder.spans


def main(argv=None) -> int:
    args = _parse_args(argv)
    _import_program()
    import check
    import machine
    import spans
    import workloads

    if args.workload not in workloads.NAMES:
        sys.exit(f"perfbench: unknown workload {args.workload!r}")
    imports_s = time.perf_counter() - _T0
    OUT.mkdir(exist_ok=True)

    stream, setup_times = set_up(workloads, args.workload, args.seed)
    setup_s = imports_s + statistics.median(setup_times)
    record = {
        "provenance": machine.provenance(
            ROOT, args.workload, args.seed, args.seconds, args.trace
        ),
        "setup": {"imports_s": imports_s, "repeats_s": setup_times},
    }
    if args.trace:
        tally, layers, recorded = measure_traced(
            stream, args.seconds, check.CheckError, spans
        )
        metrics = {name: layers[name] for name in PER_LAYER}
        units = PER_LAYER
        record["per_layer"] = layers
        record["spans"] = spans.dump(recorded)
    else:
        tally = measure(stream, args.seconds, check.CheckError)
        metrics, details = end_to_end(tally, setup_s)
        units = END_TO_END
        record["details"] = details
    record["errors"] = dict(tally.errors)

    result = {
        "correct": tally.wrong == 0,
        "attempted": len(tally.latencies),
        "failed": tally.failed,
        "metrics": {
            name: {"value": value, "unit": units[name][0]}
            for name, value in metrics.items()
        },
    }
    record["result"] = result
    out_file = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out_file.write_text(json.dumps(record), encoding="utf-8")

    for name, value in metrics.items():
        unit, better = units[name]
        print(f"{name:<34} {value:>14.6g} {unit:<7} ({better} is better)")
    summary = {k: v for k, v in record.items() if k != "spans"}
    print("details " + json.dumps(summary))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
