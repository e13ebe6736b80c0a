"""Traced runs: per-layer metrics from a replay through each module.

The replay calls the public function of every layer itself (graphemes,
rules, stemmers, paradigm, evaluation, cli) and records a span around
each call from here, in memory; nothing inside tamilstem is
instrumented.  Spans of one word share its index, and the calls made
while replaying one word are children of that word's span.

Every pass draws new inputs, and each section of a pass has its own, so
on stem-unique and generate-compare no surface reaches the program
twice.  Only within the replay of one word do the walk, ``light_stem``
and ``strip_stem`` see the same word, as they must to be compared.

The replayed walk (``candidates`` then ``apply_rule`` along the
transition table) must reproduce ``light_stem``'s stem and trace for
every word; each mismatch counts as a failed output.

Like the end-to-end timings, every timing here is scaled to the
reference speed by a calibration measured around it (see
``endtoend.Calibration``).  Self times are differences between two
sections, so the collector is paused during a pass, with a full
collection before each section; untraced runs keep it on, as users do.
"""

from __future__ import annotations

import gc
import re
import time
from array import array
from importlib import resources

from endtoend import Calibration, compare_argv, fresh_interpreters, run_cli
from workloads import ACCURACY_PARTS

UNITS = {
    "graphemes.normalize_us": "us",
    "graphemes.segment_us": "us",
    "graphemes.letters_per_word": "letters/word",
    "rules.candidates_us": "us",
    "rules.candidates_calls_per_word": "calls/word",
    "rules.candidates_hit_ratio": "ratio",
    "rules.candidates_len_mean": "rules/call",
    "rules.apply_rule_us": "us",
    "rules.parse_rules_ms": "ms",
    "stemmers.light_stem_us": "us",
    "stemmers.strip_stem_us": "us",
    "stemmers.light_self_us": "us",
    "stemmers.steps_per_word": "steps/word",
    "stemmers.stem_batch_us": "us",
    "paradigm.generate_forms_us": "us",
    "evaluation.load_gold_us": "us",
    "evaluation.compare_ms": "ms",
    "evaluation.render_ms": "ms",
    "cli.stem_self_us": "us",
    "cli.compare_self_ms": "ms",
    "cli.import_ms": "ms",
    "input.unique_ratio": "ratio",
    "trace.overhead_pct": "%",
}

_SPANS = (
    "replay.word",
    "graphemes.normalize",
    "graphemes.segment",
    "rules.candidates",
    "rules.apply_rule",
    "stemmers.light_stem",
    "stemmers.strip_stem",
)
(WORD, NORMALIZE, SEGMENT, CANDIDATES, APPLY, LIGHT, STRIP) = range(len(_SPANS))

# Tokens replayed per pass, and per calibrated section of a pass.
REPLAY = 10_000
CHUNK = 1000
# Evaluation parts per pass; small parts for the CLI's own compare time,
# run in the order library, CLI, CLI, library, and their size.
EVAL_PARTS = ACCURACY_PARTS
SELF_PARTS = 40
SELF_PART_SIZE = 0.04
SELF_ORDER = ("library", "cli", "cli", "library")
PARADIGM_ROOTS = 200
IMPORT_RUNS = 5
PARSE_RULES_RUNS = 20
_IMPORT_LINE = re.compile(r"import time:\s*\d+\s*\|\s*(\d+)\s*\|\s*tamilstem\s*$")


class Tracer:
    """Spans kept in flat arrays: name, word, parent span, start, end."""

    def __init__(self) -> None:
        self.name = array("i")
        self.word = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")

    def begin(self, name: int, word: int, parent: int = -1) -> int:
        self.name.append(name)
        self.word.append(word)
        self.parent.append(parent)
        self.end.append(0.0)
        self.start.append(time.perf_counter())
        return len(self.start) - 1

    def finish(self, span: int) -> None:
        self.end[span] = time.perf_counter()

    def totals(self) -> tuple[list[int], list[float]]:
        """Per span name: call count and total seconds."""
        count = [0] * len(_SPANS)
        total = [0.0] * len(_SPANS)
        for name, start, end in zip(self.name, self.start, self.end):
            count[name] += 1
            total[name] += end - start
        return count, total


def _steps(trace) -> tuple:
    return tuple((step.rule.order, step.before.text, step.after.text) for step in trace)


class _Replay:
    """Counts and calibrated span totals over the words replayed so far."""

    def __init__(self, ts, rules) -> None:
        self.ts, self.rules = ts, rules
        self.count = [0] * len(_SPANS)
        self.total = [0.0] * len(_SPANS)
        self.words = self.letters = self.hits = self.returned = self.steps = 0
        self.batch_s = 0.0
        self.batched = 0
        self.walked, self.engine, self.stripped, self.batch = [], [], [], []

    def chunk(self, tokens, first: int, cal: Calibration) -> None:
        ts, rules = self.ts, self.rules
        tr = Tracer()
        begin, finish = tr.begin, tr.finish
        normalize, segment = ts.normalize, ts.segment
        candidates, apply_rule = ts.candidates, ts.apply_rule
        light_stem, strip_stem = ts.light_stem, ts.strip_stem
        every = ts.ALL_CLASSES
        before = cal.seconds()
        for i, token in enumerate(tokens, start=first):
            root = begin(WORD, i)
            s = begin(NORMALIZE, i, root)
            text = normalize(token)
            finish(s)
            s = begin(SEGMENT, i, root)
            w = segment(text)
            finish(s)
            walk = []
            current, allowed = w, every
            while True:
                s = begin(CANDIDATES, i, root)
                found = candidates(rules, current, allowed)
                finish(s)
                if not found:
                    break
                self.hits += 1
                self.returned += len(found)
                rule = found[0]
                s = begin(APPLY, i, root)
                after = apply_rule(current, rule)
                finish(s)
                walk.append((rule.order, current.text, after.text))
                current = after
                if not rule.next_classes:
                    break
                allowed = rule.next_classes
            finish(root)

            s = begin(LIGHT, i)
            result = light_stem(w, rules)
            finish(s)
            s = begin(STRIP, i)
            stripped = strip_stem(w, rules)
            finish(s)

            self.letters += len(w)
            self.steps += len(result.trace)
            self.walked.append((current.text, tuple(walk)))
            self.engine.append((result.stem.text, _steps(result.trace)))
            self.stripped.append(stripped.stem.text)
        scale = cal.scale(before, cal.seconds())
        count, total = tr.totals()
        for k in range(len(_SPANS)):
            self.count[k] += count[k]
            self.total[k] += total[k] * scale
        self.words += len(tokens)

    def stem_batch(self, words, cal: Calibration) -> None:
        """``stem_batch`` with light over words no other call has seen."""
        results, seconds = cal.timed(self.ts.stem_batch, words, self.rules, self.ts.light_stem)
        self.batch_s += seconds
        self.batched += len(words)
        self.batch.extend(r.stem.text for r in results)

    def metrics(self) -> dict[str, float]:
        n, calls, total, us = self.words, self.count[CANDIDATES], self.total, 1e6
        return {
            "graphemes.normalize_us": total[NORMALIZE] / n * us,
            "graphemes.segment_us": total[SEGMENT] / n * us,
            "graphemes.letters_per_word": self.letters / n,
            "rules.candidates_us": total[CANDIDATES] / calls * us,
            "rules.candidates_calls_per_word": calls / n,
            "rules.candidates_hit_ratio": self.hits / calls,
            "rules.candidates_len_mean": self.returned / calls,
            "rules.apply_rule_us": total[APPLY] / max(self.count[APPLY], 1) * us,
            "stemmers.light_stem_us": total[LIGHT] / n * us,
            "stemmers.strip_stem_us": total[STRIP] / n * us,
            "stemmers.light_self_us": (total[LIGHT] - total[CANDIDATES] - total[APPLY]) / n * us,
            "stemmers.steps_per_word": self.steps / n,
            "stemmers.stem_batch_us": self.batch_s / self.batched * us,
        }


def _replay(ts, rules, replayed, batched, chk, cal: Calibration) -> tuple[dict[str, float], float]:
    """Replay the tokens of ``replayed`` through each layer, and time
    ``stem_batch`` on those of ``batched``: per-layer metrics, and the
    traced µs per word of normalize, segment and the walk."""
    replay = _Replay(ts, rules)
    tokens = replayed.tokens
    words = [ts.word(t) for t in batched.tokens]
    for k in range(0, len(tokens), CHUNK):
        replay.chunk(tokens[k:k + CHUNK], k, cal)
        replay.stem_batch(words[k:k + CHUNK], cal)
    chk.values("replayed walk vs light_stem", replay.walked, replay.engine)
    chk.values("strip_stem", replay.stripped, list(replayed.strip))
    chk.values("stem_batch", replay.batch, list(batched.light))
    return replay.metrics(), replay.total[WORD] / replay.words * 1e6


def _timed(fn, *args):
    start = time.perf_counter()
    result = fn(*args)
    return result, time.perf_counter() - start


def _stem_self(ts, cli, library, command, chk, cal: Calibration) -> tuple[float, float]:
    """Untraced ``light_stem(str)`` µs per word over ``library``, and CLI
    ``stem`` µs per line over ``command`` minus that.  The two streams
    are as long and drawn alike; they alternate chunk by chunk, and one
    calibration scales both halves of a chunk, so its noise cancels in
    the difference."""
    light_stem = ts.light_stem
    lib_s = cli_s = 0.0
    stems, lines = [], []
    exit_code = 0
    for k in range(0, len(library.tokens), CHUNK):
        chunk = library.tokens[k:k + CHUNK]
        text = "".join(t + "\n" for t in command.tokens[k:k + CHUNK])
        before = cal.seconds()
        got, lib = _timed(lambda: [light_stem(token).stem.text for token in chunk])
        (code, out, _), cli_raw = _timed(run_cli, cli, ["stem", "--algo", "light"], text)
        scale = cal.scale(before, cal.seconds())
        lib_s += lib * scale
        cli_s += cli_raw * scale
        stems.extend(got)
        lines.append(out)
        exit_code = exit_code or code
    chk.values("light_stem", stems, list(library.light))
    chk.lines("stem", exit_code, "".join(lines), command.lines)
    lib_us = lib_s / len(library.tokens) * 1e6
    return lib_us, cli_s / len(command.tokens) * 1e6 - lib_us


def _paradigm_us(ts, roots, cal: Calibration) -> float:
    """generate_forms per form over new roots."""
    forms, seconds = cal.timed(lambda: sum(len(ts.generate_forms(r, p)) for r, p in roots))
    return seconds / forms * 1e6


def _evaluation(ts, parts, chk, rules, cal: Calibration) -> dict[str, float]:
    """The evaluation layer, load_gold, compare and render, on each part."""
    load = cmp = rendering = 0.0
    entries = 0
    for part in parts:
        gold_text = part.gold_text
        gc.collect()
        before = cal.seconds()
        gold, load_s = _timed(ts.load_gold, gold_text)
        report, compare_s = _timed(ts.compare, gold, list(part.chunks), rules)
        rendered, render_s = _timed(ts.render, report, "csv")
        scale = cal.scale(before, cal.seconds())
        chk.lines("library compare", 0, rendered, part.report)
        load += load_s * scale
        cmp += compare_s * scale
        rendering += render_s * scale
        entries += len(gold)
        del gold, report
    return {
        "evaluation.load_gold_us": load / entries * 1e6,
        "evaluation.compare_ms": cmp / len(parts) * 1e3,
        "evaluation.render_ms": rendering / len(parts) * 1e3,
    }


def _compare_self_ms(ts, cli, parts, chk, rules, cal: Calibration) -> float:
    """CLI ``compare`` minus load_gold, compare and render, per call.

    The CLI's own work per call is small and mostly fixed, so it is
    measured on small parts, where it is not lost in the noise of the
    evaluation itself.  Library and CLI alternate in the order L C C L
    over each four parts, under one calibration.
    """
    library_s = cli_s = 0.0
    for k in range(0, len(parts) - len(SELF_ORDER) + 1, len(SELF_ORDER)):
        sums = {"library": 0.0, "cli": 0.0}
        before = cal.seconds()
        for order, part in zip(SELF_ORDER, parts[k:k + len(SELF_ORDER)]):
            gold_text = part.gold_text
            if order == "cli":
                (code, out, _), seconds = _timed(run_cli, cli, compare_argv(part), gold_text)
                chk.lines("compare", code, out, part.report)
            else:
                start = time.perf_counter()
                report = ts.compare(ts.load_gold(gold_text), list(part.chunks), rules)
                out = ts.render(report, "csv")
                seconds = time.perf_counter() - start
                chk.lines("library compare", 0, out, part.report)
            sums[order] += seconds
        scale = cal.scale(before, cal.seconds())
        library_s += sums["library"] * scale
        cli_s += sums["cli"] * scale
    calls = len(parts) // 2
    return (cli_s - library_s) / calls * 1e3


def _parse_rules_ms(ts, rule_text: str, cal: Calibration) -> float:
    runs, seconds = cal.timed(
        lambda: [ts.parse_rules(rule_text) for _ in range(PARSE_RULES_RUNS)]
    )
    return seconds / len(runs) * 1e3


def _import_ms(src: str, chk, cal: Calibration) -> list[float]:
    """Cumulative import time of the tamilstem package, from -X importtime."""
    args = ["-X", "importtime", "-c",
            "import sys; sys.path.insert(0, sys.argv[1]); import tamilstem", src]
    samples = []
    for proc, _, scale in fresh_interpreters(args, IMPORT_RUNS, cal):
        found = [m for m in map(_IMPORT_LINE.search, proc.stderr.splitlines()) if m]
        if proc.returncode != 0 or not found:
            chk.fail(f"import: exit {proc.returncode}, no tamilstem line in -X importtime")
        else:
            samples.append(int(found[-1].group(1)) / 1e3 * scale)
    return samples


def measure(ts, source, chk, seconds: float, src: str) -> dict[str, list[float]]:
    """Samples of every per-layer metric, one per replay pass.  Each pass
    draws its inputs first; passes repeat until ``seconds`` have passed,
    and at least once."""
    from tamilstem import cli

    cal = Calibration()
    rules = ts.builtin_rules()
    rule_text = (
        resources.files("tamilstem.data").joinpath("builtin_rules.tsv").read_text(encoding="utf-8")
    )
    samples: dict[str, list[float]] = {name: [] for name in UNITS}
    n = max(2, int(REPLAY * source.scale))
    passes = 0
    deadline = time.perf_counter() + seconds
    gc.disable()
    try:
        while not passes or time.perf_counter() < deadline:
            replayed, batched, library, command = (
                source.stream(n, strip=True), source.stream(n), source.stream(n), source.stream(n)
            )
            parts = [source.part() for _ in range(EVAL_PARTS)]
            small = [source.part(SELF_PART_SIZE) for _ in range(SELF_PARTS)]
            roots = source.roots(PARADIGM_ROOTS)
            gc.collect()
            layer, traced_us = _replay(ts, rules, replayed, batched, chk, cal)
            gc.collect()
            light_us, layer["cli.stem_self_us"] = _stem_self(ts, cli, library, command, chk, cal)
            layer["trace.overhead_pct"] = 100 * (traced_us - light_us) / light_us
            layer["paradigm.generate_forms_us"] = _paradigm_us(ts, roots, cal)
            layer.update(_evaluation(ts, parts, chk, rules, cal))
            gc.collect()
            layer["cli.compare_self_ms"] = _compare_self_ms(ts, cli, small, chk, rules, cal)
            layer["rules.parse_rules_ms"] = _parse_rules_ms(ts, rule_text, cal)
            layer["input.unique_ratio"] = len(set(replayed.tokens)) / len(replayed.tokens)
            for name, value in layer.items():
                samples[name].append(value)
            del replayed, batched, library, command, parts, small
            passes += 1
    finally:
        gc.enable()
    samples["cli.import_ms"] = _import_ms(src, chk, cal)
    return samples
