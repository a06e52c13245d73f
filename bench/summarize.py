"""Collect run.py results files into one summary per workload.

    python3 bench/summarize.py .bench_work/results out.json

For each workload it lists every end-to-end value by seed with its median,
quartiles (statistics.quantiles, n=4) and spread (interquartile range over
median), the median of every per-layer number over the traced records, and
the environment of the first record. Use it to compare two commits measured
with the same settings on the same machine.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path


def _stats(values):
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med if med else None,
            "n": len(values)}


def summarize(results_dir: Path):
    records = [json.loads(p.read_text()) for p in sorted(results_dir.glob("BENCH_*.json"))]
    out = {}
    for rec in records:
        w = out.setdefault(rec["workload"], {"env": rec["env"], "runs": [], "traced": []})
        (w["traced"] if rec["trace"] else w["runs"]).append(rec)
    for name, w in out.items():
        runs, traced = w.pop("runs"), w.pop("traced")
        w["seeds"] = [r["seed"] for r in runs]
        w["attempted"] = sum(r["attempted"] for r in runs + traced)
        w["failed"] = sum(r["failed"] for r in runs + traced)
        w["all_correct"] = all(r["correct"] for r in runs + traced)
        w["end_to_end"] = {
            k: {"values": [r["end_to_end"][k]["value"] for r in runs],
                **_stats([r["end_to_end"][k]["value"] for r in runs])}
            for k in (runs[0]["end_to_end"] if runs else {})
        }
        if traced:
            w["per_layer_seeds"] = [r["seed"] for r in traced]
            w["per_layer"] = {k: statistics.median(r["per_layer"][k] for r in traced)
                              for k in traced[0]["per_layer"]}
    return out


if __name__ == "__main__":
    if len(sys.argv) != 3:
        sys.exit(__doc__)
    summary = summarize(Path(sys.argv[1]))
    Path(sys.argv[2]).write_text(json.dumps(summary, indent=1) + "\n")
