"""Summarise the results of finished runs into a baseline table.

    python3 oscbench/baseline.py > oscbench/baseline.json

Reads `.oscbench/results/*.json` (one file per workload, seed and trace
setting, as `run.py` writes them) and prints, per workload, the quartiles of
every end-to-end metric over the untraced runs with their sample count, the
failures seen, and the per-layer metrics of the traced runs (median over
runs).
"""

from __future__ import annotations

import glob
import json
import os
import statistics
import sys

from run import OUT_DIR, WORKLOADS


def _quartiles(values):
    q1, q2, q3 = statistics.quantiles(values, n=4) if len(values) > 1 \
        else (values[0],) * 3
    return {"median": q2, "q1": q1, "q3": q3, "samples": len(values),
            "spread": (q3 - q1) / q2 if q2 else None}


def summarise(results_dir: str) -> dict:
    runs = []
    for path in sorted(glob.glob(os.path.join(results_dir, "*.json"))):
        with open(path) as fh:
            runs.append(json.load(fh))
    out = {"environment": {k: v for k, v in runs[0]["environment"].items()
                           if k != "seed"} if runs else {},
           "workloads": {}}
    for workload in WORKLOADS:
        mine = [r for r in runs if r["args"]["workload"] == workload]
        plain = [r for r in mine if not r["args"]["trace"]]
        traced = [r for r in mine if r["args"]["trace"]]
        ops = [op for r in plain for lad in r["ladders"]["untraced"]
               for op in lad]
        row = {
            "seeds": sorted(r["args"]["seed"] for r in plain),
            "run_seconds": sorted({r["args"]["seconds"] for r in plain}),
            "end_to_end": {k: _quartiles([r["end_to_end"][k] for r in plain])
                           for k in (plain[0]["end_to_end"] if plain else ())},
            "ops_attempted": len(ops),
            "ops_failed": sum(1 for op in ops if op["failures"]),
            "failures": sorted({f"{op['op']}: {f}" for op in ops
                                for f in op["failures"]}),
        }
        if traced:
            row["per_layer_seeds"] = sorted(r["args"]["seed"] for r in traced)
            row["per_layer"] = {
                k: statistics.median(r["metrics"][k]["value"] for r in traced)
                for k in traced[0]["metrics"]}
        out["workloads"][workload] = row
    return out


if __name__ == "__main__":
    json.dump(summarise(os.path.join(OUT_DIR, "results")), sys.stdout,
              indent=1)
    print()
