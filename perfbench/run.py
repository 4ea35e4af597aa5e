"""qbruhat benchmark: one workload, one process, one client, no threads.

Run from the repository root:

    python3 perfbench/run.py --workload roundtrip --seed 1 --seconds 30 --trace 0

With ``--trace 0`` the closed loop runs for ``--seconds`` and the end-to-end
metrics are printed.  With ``--trace 1`` a fixed, seeded list of ops runs
twice, untraced and then traced, and the per-layer metrics are printed;
the spans are written to ``.bench_out/``.  The last line of standard output
is one JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``.  ``failed`` counts ops that returned a wrong answer or raised,
and ``correct`` is false when any op did.  Failed ops are left out of the
latencies and of the completed ops that ``ops_per_s`` counts; their time
stays in its denominator.

Times are reported at reference speed.  On a shared 2-core Xeon host the
CPU's speed was seen to jump between two states about 1.75x apart, often
several times a second, and a pure-Python run follows it.  So the run
samples the speed throughout: every 20 ms of wall time a SIGALRM handler
times a fixed pure-stdlib reference computation.  Each op and each set-up
is reported as its measured time, minus the handler's own time, times the
mean speed sampled while it ran.  The figures as measured are printed too.

The package is imported from ``src/`` next to this directory and nowhere
else; without it the benchmark exits with code 2 and prints no result.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import itertools
import json
import random
import resource
import signal
import statistics
import sys
import time
import traceback
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

from config import DEFAULT_SEED, END_TO_END, RUN_SECONDS
from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
PROBE_PERIOD_S = 0.02
REFERENCE_ROUNDS = 3
# Reference speed: reference_s() takes about this many ms on the
# 2-core Xeon machine that recorded perfbench/baseline.json, in its fast state.
REF_MS = 0.54
MODULES = ("errors", "sampling", "factorize", "verify", "weyl")


def import_package():
    """Import qbruhat afresh from src/, dropping any copy already loaded."""
    for name in [m for m in sys.modules if m == "qbruhat" or m.startswith("qbruhat.")]:
        del sys.modules[name]
    importlib.invalidate_caches()
    pkg = importlib.import_module("qbruhat")
    if Path(pkg.__file__).resolve().parent.parent != SRC:
        raise ImportError(f"qbruhat was imported from {pkg.__file__}, not from {SRC}")
    return SimpleNamespace(
        **{m: importlib.import_module(f"qbruhat.{m}") for m in MODULES}
    )


def reference_s() -> float:
    """Time one run of a fixed Fraction workload that uses no qbruhat code.

    The collector is off for the sample so that a collection owed to the
    workload's garbage never lands in it.
    """
    gc.disable()
    try:
        start = time.perf_counter()
        values = [Fraction(i % 7 + 1, i % 5 + 2) for i in range(40)]
        acc = 0
        for _ in range(REFERENCE_ROUNDS):
            for a, b in zip(values, values[1:]):
                acc += (a * b + a - b).numerator % 5
        return time.perf_counter() - start
    finally:
        gc.enable()


class SpeedProbe:
    """Samples the machine's speed every PROBE_PERIOD_S of wall time.

    A speed is REF_MS over the reference's time, so it is below 1 while the
    machine runs slow.  Signal handlers run in the main thread between
    bytecodes, so the probe needs no thread and no second process.
    """

    def __init__(self):
        self.speeds = []
        self.spent = 0.0

    def _sample(self, signum=None, frame=None):
        start = time.perf_counter()
        self.speeds.append(REF_MS / (1000 * reference_s()))
        self.spent += time.perf_counter() - start

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PROBE_PERIOD_S, PROBE_PERIOD_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def timed(self, fn, *args):
        """(fn(*args), seconds as measured, seconds at reference speed).

        The probe's own time is taken out of the measured time.  A call
        too short to be sampled uses the speed sampled right after it.
        """
        first, spent = len(self.speeds), self.spent
        start = time.perf_counter()
        result = fn(*args)
        measured = time.perf_counter() - start - (self.spent - spent)
        if len(self.speeds) == first:
            self._sample()
        return result, measured, measured * statistics.fmean(self.speeds[first:])


def set_up(workload, seed):
    """Import plus seeded input generation."""
    qb = import_package()
    return qb, workload.set_up(qb, random.Random(seed))


class Outcomes:
    def __init__(self, workload):
        self.workload = workload
        self.attempted = 0
        self.failed = 0
        self.errors = {}

    def run(self, qb, item) -> bool:
        """Run and check one op; True when its answer was right.

        An exception is a failed op, never fatal; it makes the run
        incorrect, as a wrong answer does.
        """
        self.attempted += 1
        try:
            ok = self.workload.op(qb, item)
        except Exception as exc:
            ok = False
            self.errors.setdefault(type(exc).__name__, traceback.format_exc())
        if not ok:
            self.failed += 1
        return ok

    def report(self):
        for key, tb in self.errors.items():
            print(f"first {key} raised by an op:\n{tb}", file=sys.stderr)
        return {"correct": self.failed == 0, "attempted": self.attempted, "failed": self.failed}


def closed_loop(qb, items, seconds, outcomes, probe):
    """(seconds as measured, seconds at reference speed, right) of each op."""
    times = []
    deadline = time.perf_counter() + seconds
    for k in itertools.count():
        ok, measured, at_ref = probe.timed(outcomes.run, qb, items[k % len(items)])
        times.append((measured, at_ref, ok))
        if time.perf_counter() >= deadline:
            return times


def tail(latencies):
    """(value, percentile): the highest percentile with ten samples beyond it."""
    ordered = sorted(latencies)
    n = len(ordered)
    if n <= 10:
        return ordered[-1], 100.0
    return ordered[n - 11], 100.0 * (n - 10) / n


def end_to_end(workload, seed, seconds):
    outcomes = Outcomes(workload)
    with SpeedProbe() as probe:
        setups = []
        for _ in range(workload.setup_repeats):
            # Free the previous import's module cycles, untimed, so that
            # repeated set-ups do not raise peak_rss_mb.
            gc.collect()
            (qb, items), measured, at_ref = probe.timed(set_up, workload, seed)
            setups.append((measured, at_ref))
        loop_start = len(probe.speeds)
        ops = closed_loop(qb, items, seconds, outcomes, probe)
    completed = sum(ok for _, _, ok in ops)
    if not completed:
        result = outcomes.report()
        raise SystemExit(f"{workload.name}: none of {result['attempted']} ops completed")
    values = {}
    for column, label in enumerate(("as measured", "at reference speed")):
        latencies = [op[column] for op in ops if op[2]]
        tail_s, tail_pct = tail(latencies)
        values[label] = {
            "ops_per_s": completed / sum(op[column] for op in ops),
            "latency_p50_ms": 1000 * statistics.median(latencies),
            "latency_tail_ms": 1000 * tail_s,
            "setup_s": statistics.median(setup[column] for setup in setups),
        }
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    metrics = {
        name: {"value": v, "unit": END_TO_END[name]}
        for name, v in values["at reference speed"].items()
    }
    metrics["peak_rss_mb"] = {"value": rss_mb, "unit": END_TO_END["peak_rss_mb"]}
    result = outcomes.report()
    for name, m in metrics.items():
        raw = values["as measured"].get(name)
        measured = "" if raw is None else f" ({raw:.6g} as measured)"
        print(f"{workload.name} {name} = {m['value']:.6g} {m['unit']}{measured}")
    loop_speeds = probe.speeds[loop_start:]
    print(
        f"{workload.name} mean speed in the loop {statistics.fmean(loop_speeds):.4f} "
        f"of reference over {len(loop_speeds)} samples"
    )
    print(
        f"{workload.name} latency_tail_ms is p{tail_pct:.2f} of {completed} completed ops; "
        f"failed_frac = {result['failed']}/{result['attempted']} "
        f"= {result['failed'] / result['attempted']:.6g}"
    )
    if workload.resampled:
        print(
            f"{workload.name} {workload.resampled} suite trials were drawn afresh after "
            "the known ZeroInverse defect (see MinorGrid.trial)"
        )
    result["metrics"] = metrics
    return result


def traced(workload, seed):
    from tracer import Tracer

    qb, items = set_up(workload, seed)
    ops = [items[k % len(items)] for k in range(workload.trace_ops)]
    outcomes = Outcomes(workload)
    tracer = Tracer()

    def untraced_pass():
        for item in ops:
            outcomes.run(qb, item)

    def traced_pass():
        tracer.install()
        try:
            for k, item in enumerate(ops):
                tracer.op = k
                outcomes.run(qb, item)
        finally:
            tracer.uninstall()

    with SpeedProbe() as probe:
        _, _, untraced_s = probe.timed(untraced_pass)
        _, _, traced_s = probe.timed(traced_pass)
    tracer.write_spans(OUT / f"spans-{workload.name}-seed{seed}.jsonl.gz")
    metrics = tracer.metrics(traced_s / untraced_s - 1)
    print(
        f"{workload.name}: {len(ops)} ops traced, {len(tracer.spans)} spans; at reference "
        f"speed untraced {untraced_s:.3f} s, traced {traced_s:.3f} s"
    )
    for name, m in metrics.items():
        print(f"{workload.name} {name} = {m['value']:.6g} {m['unit']}")
    result = outcomes.report()
    result["metrics"] = metrics
    return result


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    sys.path.insert(0, str(SRC))
    try:
        import_package()
    except ImportError as exc:
        print(f"cannot import qbruhat from {SRC}: {exc}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    if args.trace:
        result = traced(workload, args.seed)
    else:
        result = end_to_end(workload, args.seed, args.seconds)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
