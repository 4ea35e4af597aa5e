"""Determinism self-check: two traced runs at one seed must agree exactly.

    python3 perfbench/determinism.py [--seed N] [--workload roundtrip ...]

Runs ``run.py --trace 1`` twice per workload, each in a fresh process, and
compares every per-layer metric that is a count, a ratio of counts or a
mean bit size.  Exits 1 and names the metric when any differs.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

from config import DEFAULT_SEED
from tracer import DETERMINISTIC
from workloads import WORKLOADS

RUN = Path(__file__).resolve().parent / "run.py"


def traced_metrics(workload: str, seed: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(RUN), "--workload", workload, "--seed", str(seed), "--trace", "1"],
        capture_output=True,
        text=True,
        check=True,
    )
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    return {name: m["value"] for name, m in result["metrics"].items()}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--workload", nargs="*", choices=sorted(WORKLOADS), default=list(WORKLOADS))
    args = parser.parse_args(argv)
    differing = 0
    for workload in args.workload:
        first = traced_metrics(workload, args.seed)
        second = traced_metrics(workload, args.seed)
        for name in DETERMINISTIC:
            if first[name] != second[name]:
                differing += 1
                print(f"{workload} {name}: {first[name]!r} != {second[name]!r}")
        print(f"{workload}: {len(DETERMINISTIC)} metrics compared at seed {args.seed}")
    print("deterministic" if differing == 0 else f"{differing} metrics differ")
    return 1 if differing else 0


if __name__ == "__main__":
    sys.exit(main())
