"""The benchmark's one source of metric names, units, seeds and run length.

Names and units come from BENCHMARK.json at the repository root; seeds,
workload notes and the layer-to-metric predictions come from spec.json next
to this file.  Loading checks that spec.json names only workloads and
metrics that BENCHMARK.json defines, so the two cannot drift apart silently.
"""

from __future__ import annotations

import json
from pathlib import Path

HERE = Path(__file__).resolve().parent
BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text())
SPEC = json.loads((HERE / "spec.json").read_text())

RUN_SECONDS = BENCHMARK["run_seconds"]
END_TO_END = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
PER_LAYER = {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}
DEFAULT_SEED = SPEC["seeds"]["default"]
# Printed by every run and part of the result line, but not a bounded metric.
UNBOUNDED = ("failed_frac",)


def _check_spec():
    workloads = {w["name"] for w in BENCHMARK["workloads"]}
    if set(SPEC["workloads"]) != workloads:
        raise ValueError(f"spec.json workloads {sorted(SPEC['workloads'])} != {sorted(workloads)}")
    for row in SPEC["predictions"]:
        unknown = [m for m in row["metrics"] if m not in PER_LAYER]
        for table in ("moves", "flat"):
            for workload, metrics in row.get(table, {}).items():
                if workload not in workloads:
                    unknown.append(workload)
                unknown += [m for m in metrics if m not in END_TO_END and m not in UNBOUNDED]
        if unknown:
            raise ValueError(f"spec.json prediction for {row['layer']} names unknown {unknown}")


_check_spec()
