"""Untraced runs: the end-to-end metrics a user of tamilstem sees.

The workload is driven through each public entry point: the CLI
evaluation pipeline (``generate`` then ``compare``, or ``compare``
alone), the CLI ``stem`` command and a library user's per-call
``light_stem(str)``.  Every metric is a median over its samples.
"""

from __future__ import annotations

import gc
import io
import random
import resource
import statistics
import subprocess
import sys
import time

from reference import letters
from workloads import ACCURACY_PARTS, random_word

UNITS = {
    "words_per_s": "words/s",
    "word_p50_us": "us",
    "word_p99_us": "us",
    "entries_per_s": "entries/s",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}

# The ROADMAP floor: 10,000 words stemmed in under a second by the CLI.
FLOOR_WORDS_PER_S = 10_000

COLD_STARTS = 15
# Each round runs one evaluation part, then this many pairs of stem
# streams (CLI, then per-call), so that a round spends about as long on
# the stem metrics as on entries_per_s.  A stream of 2,500 calls has 25
# beyond its p99.
STREAMS_PER_ROUND = {"stem-zipf": 1, "stem-unique": 3, "generate-compare": 2}
_COLD_START = (
    "import sys; sys.path.insert(0, sys.argv[1]); import tamilstem; "
    "tamilstem.builtin_rules(); print(tamilstem.light_stem(sys.argv[2]).stem.text)"
)
COLD_START_WORD = "மரங்கள்உக்கு"


class Calibration:
    """A fixed pure-Python task, timed next to every measured section.

    The machine the benchmark runs on may share its cores, and its speed
    then drifts by up to 1.7x over seconds.  Every timing is therefore
    scaled by ``REFERENCE_S / seconds()``, the calibration time taken
    just around it, which turns a wall-clock figure into one at the
    reference speed.  The task does what the stemmers do, in code that
    is not tamilstem's: NFC, a regular-expression letter split, suffix
    probes into a dict and a join.  Over ten seeds on a 2-vCPU Xeon, the
    spread of the runs' medians (quartile distance over median) fell from
    10-38% raw to 1-7% calibrated.  Raw figures stay in the run record.
    """

    # About what seconds() takes on a 2-vCPU Intel Xeon at 2.1 GHz under
    # CPython 3.11, so calibrated figures read close to wall-clock ones there.
    REFERENCE_S = 0.005
    WORDS = 1000

    def __init__(self) -> None:
        rng = random.Random(0)
        self._words = [random_word(rng) for _ in range(self.WORDS)]
        self._suffixes = {
            letters(w)[-k:] for w in (random_word(rng) for _ in range(self.WORDS)) for k in (1, 2, 3)
        }

    def seconds(self) -> float:
        start = time.perf_counter()
        suffixes = self._suffixes
        for w in self._words:
            split = letters(w)
            n = len(split)
            for k in range(n, 0, -1):
                if split[n - k:] in suffixes:
                    "".join(split[: n - k])
                    break
        return time.perf_counter() - start

    def timed(self, fn, *args):
        """(result, seconds at reference speed) of one call of ``fn``."""
        before = self.seconds()
        start = time.perf_counter()
        result = fn(*args)
        elapsed = time.perf_counter() - start
        return result, elapsed * self.scale(before, self.seconds())

    def scale(self, before: float, after: float) -> float:
        """Factor from wall time to reference time, given the calibration
        seconds measured just before and just after a section."""
        return 2 * self.REFERENCE_S / (before + after)


def run_cli(cli, argv: list[str], text: str) -> tuple[int, str, float]:
    """``tamilstem.cli.main`` in-process: (exit code, stdout, seconds)."""
    stdin, stdout, stderr = io.StringIO(text), io.StringIO(), io.StringIO()
    start = time.perf_counter()
    code = cli.main(argv, stdin=stdin, stdout=stdout, stderr=stderr)
    return code, stdout.getvalue(), time.perf_counter() - start


def compare_argv(part) -> list[str]:
    return ["compare", "--chunks", ",".join(map(str, part.chunks)), "--format", "csv"]


def fresh_interpreters(args: list[str], runs: int, cal: Calibration):
    """Start ``python args...`` ``runs`` times, after one discarded start
    that warms the file and bytecode caches: (finished process, wall
    seconds, calibration scale) of each start."""
    argv = [sys.executable, *args]
    out = []
    before = cal.seconds()
    for i in range(runs + 1):
        start = time.perf_counter()
        proc = subprocess.run(argv, capture_output=True, text=True, timeout=60)
        elapsed = time.perf_counter() - start
        after = cal.seconds()
        if i:
            out.append((proc, elapsed, cal.scale(before, after)))
        before = after
    return out


def cold_starts(src: str, expected_stem: str, chk, cal: Calibration):
    """Fresh interpreters that import tamilstem and stem one word: raw
    wall seconds and calibration scales."""
    raw, scales = [], []
    for proc, elapsed, scale in fresh_interpreters(
        ["-c", _COLD_START, src, COLD_START_WORD], COLD_STARTS, cal
    ):
        if proc.returncode != 0 or proc.stdout.strip() != expected_stem:
            chk.fail(f"cold start: exit {proc.returncode}, output {proc.stdout.strip()!r}")
        raw.append(elapsed)
        scales.append(scale)
    return raw, scales


def _evaluation(cli, part, chk) -> float:
    """One part through generate (when it has roots) piped into compare;
    seconds spent in the CLI."""
    seconds = 0.0
    if part.roots:
        outputs = []
        for paradigm, expected in part.generated.items():
            argv = ["generate", "--paradigm", paradigm]
            code, out, dt = run_cli(cli, argv, part.root_text(paradigm))
            chk.lines(f"generate {paradigm}", code, out, expected)
            outputs.append(out)
            seconds += dt
        gold_text = "".join(outputs)
    else:
        gold_text = part.gold_text
    code, out, dt = run_cli(cli, compare_argv(part), gold_text)
    chk.lines("compare", code, out, part.report)
    return seconds + dt


def _per_call(light_stem, tokens) -> tuple[list[float], list[str]]:
    clock = time.perf_counter
    latencies = [0.0] * len(tokens)
    stems = [""] * len(tokens)
    for i, token in enumerate(tokens):
        start = clock()
        result = light_stem(token)
        latencies[i] = clock() - start
        stems[i] = result.stem.text
    return latencies, stems


def measure(ts, source, chk, seconds: float, src: str, cold_stem: str):
    """Samples of every end-to-end metric: (calibrated, raw wall-clock).

    Each round first draws its inputs, then runs the evaluation pipeline
    on its part (one ``entries_per_s`` sample), then each of its pairs of
    streams: the first through the CLI, the second through per-call
    ``light_stem`` (one sample of each stem metric per pair).  Rounds
    repeat until ``seconds`` have passed, and at least ACCURACY_PARTS
    times, so the samples of every metric spread over the whole run.  A
    calibration sits between every two sections.  ``cold_stem`` is the
    reference stem of ``COLD_START_WORD``.
    """
    from tamilstem import cli

    cal = Calibration()
    raw: dict[str, list[float]] = {name: [] for name in UNITS}
    scales: dict[str, list[float]] = {name: [] for name in UNITS}

    def add(name: str, value: float, scale: float) -> None:
        raw[name].append(value)
        scales[name].append(scale)

    rounds = 0
    deadline = time.perf_counter() + seconds
    while rounds < ACCURACY_PARTS or time.perf_counter() < deadline:
        part = source.part()
        pairs = [
            (source.stream(), source.stream())
            for _ in range(STREAMS_PER_ROUND[source.name])
        ]
        gc.collect()
        c0 = cal.seconds()
        eval_s = _evaluation(cli, part, chk)
        c1 = cal.seconds()
        # A rate gets faster at reference speed when the machine is slow.
        add("entries_per_s", len(part.gold) / eval_s, 1 / cal.scale(c0, c1))
        del part
        gc.collect()
        c0 = cal.seconds()
        for stem_input, call_input in pairs:
            code, out, dt = run_cli(cli, ["stem", "--algo", "light"], stem_input.text)
            c1 = cal.seconds()
            chk.lines("stem", code, out, stem_input.lines)
            add("words_per_s", len(stem_input.tokens) / dt, 1 / cal.scale(c0, c1))

            latencies, got = _per_call(ts.light_stem, call_input.tokens)
            c2 = cal.seconds()
            chk.values("light_stem", got, call_input.light)
            cuts = statistics.quantiles(latencies, n=100)
            add("word_p50_us", cuts[49] * 1e6, cal.scale(c1, c2))
            add("word_p99_us", cuts[98] * 1e6, cal.scale(c1, c2))
            c0 = c2
        rounds += 1

    add("peak_rss_mb", resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, 1.0)
    raw["setup_s"], scales["setup_s"] = cold_starts(src, cold_stem, chk, cal)
    if source.name in ("stem-zipf", "stem-unique"):
        rate = statistics.median(raw["words_per_s"])
        if rate < FLOOR_WORDS_PER_S:
            chk.fail(
                f"floor: CLI stem ran {rate:.0f} words/s wall-clock, "
                f"below {FLOOR_WORDS_PER_S} words in 1 s"
            )
    calibrated = {
        name: [v * k for v, k in zip(raw[name], scales[name])] for name in UNITS
    }
    return calibrated, raw
