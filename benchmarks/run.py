"""tamilstem benchmark: one workload per run, untraced or traced.

Run from the root of a source checkout (no install needed; the package
is imported from ``src/``)::

    python3 benchmarks/run.py --workload stem-zipf --seed 1 --seconds 20 --trace 0

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
metrics of a replay through each module.  Every output is checked
against an independent reference (reference.py).  The last line of
stdout is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics``.  A fuller record of the run, with quartiles, sample counts
and the environment, goes to ``benchmarks/results/``.  See README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RESULTS = HERE / "results"
WORKLOADS = ("stem-zipf", "stem-unique", "generate-compare")
SCHEMA = 2


def _args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _import_tamilstem():
    """Import the package from this checkout's src/, or exit non-zero."""
    if not (SRC / "tamilstem" / "__init__.py").is_file():
        sys.exit(f"benchmark: no tamilstem sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import tamilstem

    if Path(tamilstem.__file__).resolve().parent != SRC / "tamilstem":
        sys.exit(f"benchmark: imported tamilstem from {tamilstem.__file__}, not {SRC}")
    return tamilstem


def summary(samples: list[float]) -> dict:
    """Median and quartiles of one metric's samples."""
    if len(samples) >= 2:
        q1, median, q3 = statistics.quantiles(samples, n=4, method="inclusive")
    else:
        q1 = median = q3 = samples[0]
    return {"samples": len(samples), "median": median, "q1": q1, "q3": q3}


def _source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((SRC / "tamilstem").rglob("*")):
        if path.is_file() and path.suffix in (".py", ".tsv"):
            digest.update(str(path.relative_to(SRC)).encode())
            digest.update(path.read_bytes())
    return digest.hexdigest()


def _commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        proc = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=10,
        )
    except OSError:
        return None
    return proc.stdout.strip() or None


def environment() -> dict:
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "nproc": os.cpu_count(),
        "commit": _commit(),
        "source_sha256": _source_digest(),
    }


def execute(ts, name: str, seed: int, seconds: float, trace: int, scale: float = 1.0) -> dict:
    """Build the workload's inputs, measure them and return the run record."""
    # Imported here: these modules import tamilstem, which is only on the
    # path once _import_tamilstem has run.
    import endtoend
    import layers
    import reference
    import workloads

    ref = reference.Reference(ts.builtin_rules())
    source = workloads.Source(name, seed, ref, scale)
    chk = reference.Checker()

    started = time.time()
    if trace:
        units = layers.UNITS
        samples = layers.measure(ts, source, chk, seconds, str(SRC))
        raw = {}
    else:
        units = endtoend.UNITS
        cold_stem = ref.light(endtoend.COLD_START_WORD)[0]
        samples, raw = endtoend.measure(ts, source, chk, seconds, str(SRC), cold_stem)
    acc_strip, acc_light = source.accuracies()
    return {
        "schema": SCHEMA,
        "workload": name,
        "why": source.why,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "scale": scale,
        "started": started,
        "environment": environment(),
        "inputs": source.drawn(),
        "metrics": [
            {
                "name": m,
                "unit": units[m],
                "workload": name,
                **summary(samples[m]),
                **({"raw": summary(raw[m])} if m in raw else {}),
            }
            for m in units
        ],
        "accuracy": {
            "acc_light_pct": {"value": float(acc_light), "exact": str(acc_light)},
            "acc_strip_pct": {"value": float(acc_strip), "exact": str(acc_strip)},
        },
        "correct": chk.correct,
        "attempted": chk.attempted,
        "failed": chk.failed,
        "failed_share": chk.failed / max(chk.attempted, 1),
        "problems": chk.problems,
    }


def result_line(record: dict) -> dict:
    """The object printed as the last line of stdout."""
    return {
        "correct": record["correct"],
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {
            m["name"]: {"value": m["median"], "unit": m["unit"]} for m in record["metrics"]
        },
    }


def main(argv=None) -> int:
    args = _args(argv)
    ts = _import_tamilstem()
    record = execute(ts, args.workload, args.seed, args.seconds, args.trace)
    RESULTS.mkdir(exist_ok=True)
    path = RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=2, ensure_ascii=False) + "\n", encoding="utf-8")

    mode = "traced" if args.trace else "untraced"
    print(f"# {args.workload} seed {args.seed}, {mode}, {args.seconds:g} s: {record['why']}")
    for m in record["metrics"]:
        print(
            f"{m['name']:34} {m['median']:14.4f} {m['unit']:12} "
            f"median of {m['samples']} (q1 {m['q1']:.4f}, q3 {m['q3']:.4f})"
        )
    for name, acc in record["accuracy"].items():
        print(f"{name:34} {acc['value']:14.4f} {'%':12} exact {acc['exact']}, over the first evaluation parts")
    print(
        f"{'failed_share':34} {record['failed_share']:14.4f} {'ratio':12} "
        f"{record['failed']} of {record['attempted']} outputs"
    )
    for problem in record["problems"]:
        print(f"benchmark: {problem}", file=sys.stderr)
    print(json.dumps(result_line(record)))
    return 0 if record["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
