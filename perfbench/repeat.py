"""Every workload, one or more seeded runs each: metrics, quartiles, spread.

    python3 perfbench/repeat.py [--runs 10] [--first-seed 1] [--seconds 30]
                                [--workload roundtrip ...] [--out FILE]

Runs ``run.py --trace 0`` once per seed (first-seed, first-seed + 1, ...)
for each workload, one run at a time, and prints every end-to-end metric
of every run with its unit.  With two runs or more it also reports, per
metric, the median, the quartiles from ``statistics.quantiles(n=4)`` and
the spread, the interquartile distance as a share of the median, next to
the metric's bound from BENCHMARK.json.  The report records the Python
version, the usable CPU count and the CPU model beside the figures.
``--runs 1`` is the one command that runs and checks all three workloads.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

from config import BENCHMARK, RUN_SECONDS
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
RUN = HERE / "run.py"


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment() -> dict:
    return {
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
    }


def run_once(workload: str, seed: int, seconds: int) -> dict:
    proc = subprocess.run(
        [
            sys.executable, str(RUN), "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", "0",
        ],
        capture_output=True,
        text=True,
        check=True,
    )
    return json.loads(proc.stdout.strip().splitlines()[-1])


def summarize(values, bound):
    q1, median, q3 = statistics.quantiles(values, n=4)
    spread = (q3 - q1) / median
    return {
        "median": median,
        "q1": q1,
        "q3": q3,
        "spread": spread,
        "bound": bound,
        "steady": spread < bound / 3,
        "values": values,
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=RUN_SECONDS)
    parser.add_argument("--workload", nargs="*", choices=sorted(WORKLOADS), default=list(WORKLOADS))
    parser.add_argument("--out", type=Path)
    args = parser.parse_args(argv)
    if args.runs < 1:
        parser.error("--runs must be at least 1")
    seeds = list(range(args.first_seed, args.first_seed + args.runs))
    report = {"environment": environment(), "seconds": args.seconds, "seeds": seeds, "workloads": {}}
    for workload in args.workload:
        results = []
        for seed in seeds:
            results.append(run_once(workload, seed, args.seconds))
            result = results[-1]
            print(
                f"{workload} seed {seed}: failed {result['failed']}/{result['attempted']}, "
                + ", ".join(f"{k} {m['value']:.6g} {m['unit']}" for k, m in result["metrics"].items()),
                file=sys.stderr,
            )
        entry = {
            "attempted": sum(r["attempted"] for r in results),
            "failed": sum(r["failed"] for r in results),
            "all_correct": all(r["correct"] for r in results),
            "metrics": {},
        }
        for metric in BENCHMARK["end_to_end"] if len(results) > 1 else ():
            values = [r["metrics"][metric["name"]]["value"] for r in results]
            summary = summarize(values, metric["bound"])
            summary["unit"] = metric["unit"]
            entry["metrics"][metric["name"]] = summary
            print(
                f"{workload} {metric['name']}: median {summary['median']:.6g} {metric['unit']}, "
                f"spread {summary['spread']:.4f} (bound {metric['bound']})",
                file=sys.stderr,
            )
        report["workloads"][workload] = entry
    text = json.dumps(report, indent=2)
    if args.out:
        args.out.write_text(text + "\n")
    print(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
