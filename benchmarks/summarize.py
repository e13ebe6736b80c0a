"""Summarize run records across seeds, as one point of the BENCH trajectory.

    python3 benchmarks/summarize.py [RESULTS_DIR] > benchmarks/trajectory/NAME.json

Reads every run record that run.py wrote (default: benchmarks/results/)
and prints, per workload and mode, each metric's median over the runs'
medians, the quartiles and spread of those medians, the seeds and the
environment of the first run.  Compare two such files metric by metric,
workload by workload, against the bounds in BENCHMARK.json.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

import run


def summarize(records: list[dict]) -> dict:
    groups: dict[tuple[str, int], list[dict]] = {}
    for record in sorted(records, key=lambda r: (r["workload"], r["trace"], r["seed"])):
        groups.setdefault((record["workload"], record["trace"]), []).append(record)
    out = []
    for (workload, trace), group in groups.items():
        metrics = []
        for i, first in enumerate(group[0]["metrics"]):
            medians = [r["metrics"][i]["median"] for r in group]
            row = {"name": first["name"], "unit": first["unit"], "workload": workload, "runs": len(group)}
            row.update(run.summary(medians))
            if row["median"]:
                row["spread"] = (row["q3"] - row["q1"]) / abs(row["median"])
            metrics.append(row)
        out.append({
            "workload": workload,
            "trace": trace,
            "seeds": [r["seed"] for r in group],
            "seconds": group[0]["seconds"],
            "all_correct": all(r["correct"] for r in group),
            "failed": sum(r["failed"] for r in group),
            "attempted": sum(r["attempted"] for r in group),
            "accuracy": {k: statistics.median(r["accuracy"][k]["value"] for r in group) for k in group[0]["accuracy"]},
            "environment": group[0]["environment"],
            "metrics": metrics,
        })
    return {"schema": run.SCHEMA, "groups": out}


def main(argv: list[str]) -> int:
    folder = Path(argv[0]) if argv else run.RESULTS
    records = [json.loads(p.read_text(encoding="utf-8")) for p in sorted(folder.glob("*.json"))]
    if not records:
        sys.exit(f"summarize: no run records in {folder}")
    print(json.dumps(summarize(records), indent=2, ensure_ascii=False))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
