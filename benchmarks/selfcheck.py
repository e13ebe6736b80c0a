"""Fast self-check of the benchmark on tiny inputs (about 10 s).

    python3 benchmarks/selfcheck.py

It checks the run record and the result line against BENCHMARK.json,
that every workload passes its reference checks at this commit, and
that the checks do catch wrong output.  It checks no timing.
"""

from __future__ import annotations

import io
import json
import math
import sys

import run

SCALE = 0.02
SEED = 7
RECORD_KEYS = {
    "schema", "workload", "why", "seed", "seconds", "trace", "scale", "started",
    "environment", "inputs", "metrics", "accuracy", "correct", "attempted",
    "failed", "failed_share", "problems",
}
METRIC_KEYS = {"name", "unit", "workload", "samples", "median", "q1", "q3"}
ENV_KEYS = {"python", "implementation", "platform", "nproc", "commit", "source_sha256"}


def _require(ok: bool, message: str) -> None:
    if not ok:
        raise SystemExit(f"selfcheck: {message}")


def _check_record(record: dict, spec: dict) -> None:
    name, trace = record["workload"], record["trace"]
    where = f"{name} trace {trace}"
    _require(set(record) == RECORD_KEYS, f"{where}: record keys {sorted(record)}")
    _require(set(record["environment"]) == ENV_KEYS, f"{where}: environment keys")
    _require(record["correct"] and record["failed"] == 0, f"{where}: {record['problems']}")
    _require(record["attempted"] >= 1, f"{where}: nothing attempted")
    want = spec["per_layer" if trace else "end_to_end"]
    got = [(m["name"], m["unit"]) for m in record["metrics"]]
    _require(got == [(m["name"], m["unit"]) for m in want], f"{where}: metrics {got}")
    for m in record["metrics"]:
        _require(METRIC_KEYS <= set(m) and m["workload"] == name, f"{where}: metric {m}")
        _require(m["samples"] >= 1 and m["q1"] <= m["median"] <= m["q3"], f"{where}: {m}")
        _require(math.isfinite(m["median"]), f"{where}: {m['name']} is not finite")
    line = json.loads(json.dumps(run.result_line(record)))
    _require(set(line) == {"correct", "attempted", "failed", "metrics"}, f"{where}: result line")
    _require(set(line["metrics"]) == {m["name"] for m in want}, f"{where}: result metrics")


def _check_inputs(ts) -> None:
    """A seed gives the same inputs every time, and on stem-unique and
    generate-compare no surface is handed out twice."""
    import reference
    import workloads

    def draws(name: str) -> list[str]:
        source = workloads.Source(name, SEED, reference.Reference(ts.builtin_rules()), SCALE)
        surfaces = []
        for size in (1.0, 0.5, 1.0):
            surfaces += source.stream().tokens
            # A part's gold may list a surface twice (two verb cells share
            # one); the program stems each distinct surface once.
            surfaces += dict.fromkeys(s for s, _ in source.part(size).gold)
        return surfaces

    for name in run.WORKLOADS:
        first = draws(name)
        _require(first == draws(name), f"{name}: one seed gave two different inputs")
        if name != "stem-zipf":
            _require(len(set(first)) == len(first), f"{name}: a surface was drawn twice")


def _check_mutations(ts) -> None:
    """The reference comparison must flag a wrong stem, a missing line,
    a non-zero exit and a rule set that differs from the program's."""
    import reference
    import workloads
    from tamilstem import cli

    rules = ts.builtin_rules()
    ref = reference.Reference(rules)
    stream = workloads.Source("stem-zipf", SEED, ref, SCALE).stream()
    out = io.StringIO()
    code = cli.main(["stem", "--algo", "light"], stdin=io.StringIO(stream.text), stdout=out)
    good = out.getvalue()

    chk = reference.Checker()
    chk.lines("stem", code, good, stream.lines)
    _require(chk.correct, f"unchanged output flagged: {chk.problems}")

    token, stem = stream.lines[0].split("\t")
    wrong = good.replace(f"{token}\t{stem}\n", f"{token}\t{token}x\n", 1)
    for got, exit_code, what in (
        (wrong, 0, "a wrong stem"),
        (good.split("\n", 1)[1], 0, "a missing line"),
        (good, 1, "a non-zero exit"),
    ):
        chk = reference.Checker()
        chk.lines("stem", exit_code, got, stream.lines)
        _require(chk.failed >= 1 and not chk.correct, f"{what} was not flagged")

    # Drop the rule that fires most on this stream: the reference built
    # from the smaller rule set must then disagree with the program.
    fired = [step[1] for t in stream.tokens for step in ref.light(t)[1]]
    top = max(set(fired), key=fired.count)
    kept = [r for r in ts.render_rules(rules).splitlines() if r.split("\t")[1] != top]
    broken = reference.Reference(ts.parse_rules("\n".join(kept) + "\n"))
    chk = reference.Checker()
    chk.lines("stem", code, good, [f"{t}\t{broken.light(t)[0]}" for t in stream.tokens])
    _require(chk.failed >= 1, "a rule set unlike the program's was not flagged")


def main() -> int:
    ts = run._import_tamilstem()

    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    _require(
        [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS),
        "BENCHMARK.json workloads differ from run.WORKLOADS",
    )
    for name in run.WORKLOADS:
        for trace in (0, 1):
            _check_record(run.execute(ts, name, SEED, 0, trace, SCALE), spec)
    _check_inputs(ts)
    _check_mutations(ts)
    print("selfcheck ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
