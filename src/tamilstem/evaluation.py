"""Gold-standard evaluation: accuracy and reports.

Accuracy is the fraction of distinct surface forms whose computed stem
matches the expected stem exactly, expressed as a percentage.  Values
are kept as exact rationals (`fractions.Fraction`) internally; display
truncates toward zero to one decimal place, so 85.59… renders as
``85.5``.

Gold policy: a surface may appear more than once in the gold, and
only its first entry is scored.  A later entry of the same surface with
another expected stem is a conflict.  The scorer returns one
`GoldConflictWarning` naming them all, which `evaluate` and `compare`
raise and ``tamilstem eval`` and ``compare`` print.

A comparison report runs both engines over cumulative prefixes of a
gold sequence ("the first 200 entries, the first 400, …") and appends
the arithmetic mean of the per-chunk accuracies.  Both engines run
through `stemmers._both`, and no surface after the last chunk is
stemmed.

One parser, `_parse_gold`, reads gold text as NFC text pairs.
`load_gold` builds `GoldEntry`s from them; ``tamilstem eval`` and
``tamilstem compare`` score them as they are, through the path
`compare` takes, and so segment no field (``eval`` prints one engine's
column of the report).  Unless a surface still holds text outside the
fast range once normalized, the parser says so, the walks are told,
and no surface is scanned again.  Gold is read and scored once per
distinct line: the parser parses each distinct line once per call, and
the scorer walks each chunk's distinct pairs once.
"""

from __future__ import annotations

import json
import warnings
from fractions import Fraction
from functools import lru_cache
from numbers import Rational

from .graphemes import _NOT_FAST_NFC, GraphemeWord, _text_lines
from .graphemes import _packaged_text, _record, normalize, word
from .paradigm import build_corpus
from .rules import RuleSet
from .stemmers import _both

CSV_HEADER = (
    "n_words",
    "n_unique",
    "correct_strip",
    "acc_strip",
    "correct_light",
    "acc_light",
)


class GoldError(ValueError):
    """A malformed gold file, pointing at the offending line."""

    def __init__(self, line: int, message: str):
        super().__init__(f"line {line}: {message}")
        self.line = line


class GoldConflictWarning(UserWarning):
    """Duplicate surfaces with different expected stems."""


@_record
class GoldEntry:
    """One labelled example: an inflected surface and its expected stem."""

    surface: GraphemeWord
    expected_stem: GraphemeWord


@_record
class EvalRow:
    """Both engines' scores over one cumulative chunk."""

    n_words: int
    n_unique: int
    n_correct_strip: int
    n_correct_light: int
    acc_strip: Fraction
    acc_light: Fraction


@_record
class EvalReport:
    """Chunk rows plus arithmetic-mean averages (None when empty)."""

    rows: tuple[EvalRow, ...]
    avg_strip: Fraction | None
    avg_light: Fraction | None


def _parse_gold(text: str) -> "tuple[list[tuple[str, str]], bool]":
    """One ``(surface, stem)`` NFC text pair per data line of gold
    *text* (``#`` comments and blanks skip), and whether the pairs are
    fast: `_NOT_FAST_NFC` finds nothing in any of their surfaces, so the
    walks need not scan them.

    Each distinct line is parsed once per call, in the order of its
    first occurrence, and its repeats share one pair.  Each field is a
    stripped substring of its line, so where `_NOT_FAST_NFC` finds
    nothing in the line, it finds nothing in either field, which is
    already NFC; only the fields of other lines are normalized, and the
    pairs are fast unless a normalized surface still holds text it
    finds.  A lone surrogate, the residue of a failed decode, is a
    `GoldError` at the first line that carries it, a comment line too.
    Every line is parsed, also those after the last chunk a caller
    scores, so a malformed late line is still an error.
    """
    lines = _text_lines(text)
    fast = True  # until a normalized surface is not
    parsed = dict.fromkeys(lines)  # line to its pair; None if it has none
    try:
        for line in parsed:
            data = line.strip()
            if not data or data[0] == "#":
                if data:
                    normalize(line)  # only to reject a lone surrogate
                continue
            fields = data.split("\t")
            if len(fields) != 2:
                raise ValueError(
                    f"expected 2 tab-separated fields, got {len(fields)}"
                )
            pair = fields[0].strip(), fields[1].strip()
            if _NOT_FAST_NFC.search(line) is not None:
                pair = normalize(pair[0]), normalize(pair[1])
                fast = fast and _NOT_FAST_NFC.search(pair[0]) is None
            parsed[line] = pair
    except ValueError as exc:  # a bad field count or a lone surrogate
        raise GoldError(lines.index(line) + 1, str(exc)) from None
    return list(filter(None, map(parsed.__getitem__, lines))), fast


def load_gold(text: str) -> list[GoldEntry]:
    """Parse ``surface<TAB>stem`` lines; ``#`` comments and blanks skip.

    Lines that read as the same NFC text pair share one (frozen)
    `GoldEntry`, built once per call.  Each distinct field text is
    segmented once per call, and its entries share one `GraphemeWord`.
    """
    pairs, _ = _parse_gold(text)
    words = lru_cache(maxsize=None)(word)  # field text to its word
    entries = {p: GoldEntry(*map(words, p)) for p in dict.fromkeys(pairs)}
    return [entries[pair] for pair in pairs]


def accuracy(n_correct: int, n_unique: int) -> Fraction:
    """Correctly stemmed share of unique words, as an exact percentage."""
    if n_unique == 0:
        raise ValueError("accuracy undefined: no unique words")
    if not 0 <= n_correct <= n_unique:
        raise ValueError(
            f"n_correct must be within [0, {n_unique}], got {n_correct}"
        )
    return Fraction(100 * n_correct, n_unique)


def format_accuracy(value: Rational) -> str:
    """Render a percentage truncated toward zero to one decimal place."""
    tenths = int(Fraction(value) * 10)  # int() truncates toward zero
    whole, tenth = divmod(abs(tenths), 10)
    return f"{'-' if tenths < 0 else ''}{whole}.{tenth}"


def _score(pairs, stems, engines, boundaries):
    """Score gold text *pairs* in one pass under the gold policy, as
    ``(points, conflict)``: ``(n_words, n_unique, *correct)`` at each of
    the strictly ascending *boundaries* (the counts so far, one correct
    count per engine), and an unraised `GoldConflictWarning` naming
    every conflict, or None.

    *stems* maps a surface text to its stem texts under each of
    *engines* engines.  It runs on the first entry of each surface up to
    the last boundary only; the conflict scan goes on to the end of
    *pairs*.  Each segment between boundaries, and the one after the
    last, is walked once per distinct pair in the order of its first
    occurrence: a repeat of a pair within a segment changes no count.
    """
    first: dict[str, str] = {}  # surface text to its expected stem text
    conflicts = set()
    correct = [0] * engines
    points = []
    start = 0
    for end in (*boundaries, None):  # None: the conflict scan's segment
        for surface, stem in dict.fromkeys(pairs[start:end]):
            expected = first.get(surface)
            if expected is None:
                first[surface] = stem
                if end is not None:
                    for index, got in enumerate(stems(surface)):
                        if got == stem:
                            correct[index] += 1
            elif expected != stem:
                conflicts.add(surface)
        if end is not None:
            points.append((end, len(first), *correct))
        start = end
    if not conflicts:
        return points, None
    return points, GoldConflictWarning(
        "conflicting expected stems for duplicated surfaces "
        f"(first occurrence wins): {', '.join(sorted(conflicts))}"
    )


def _texts(gold: "list[GoldEntry]") -> "list[tuple[str, str]]":
    return [(e.surface.text, e.expected_stem.text) for e in gold]


def evaluate(stemmer, gold: "list[GoldEntry]") -> tuple[int, int]:
    """Score one engine: (n_unique, n_correct) under the gold policy."""
    if not gold:
        raise ValueError("empty gold standard: nothing to evaluate")
    # The stemmer takes each surface's first `GraphemeWord`.
    words = {e.surface.text: e.surface for e in reversed(gold)}
    ((_, n_unique, n_correct),), conflict = _score(
        _texts(gold),
        lambda text: (stemmer(words[text]).stem.text,),
        1,
        [len(gold)],
    )
    if conflict is not None:
        warnings.warn(conflict, stacklevel=2)
    return n_unique, n_correct


def compare(
    gold: "list[GoldEntry]",
    chunk_sizes: "list[int]",
    rules: RuleSet | None = None,
) -> EvalReport:
    """Score both engines over cumulative prefixes of *gold*.

    ``chunk_sizes`` must be positive, ascending and at most ``len(gold)``.
    Row k covers the first ``chunk_sizes[k]`` entries under the gold
    policy, so unique counts are non-decreasing across rows.
    """
    report, conflict = _compare_texts(_texts(gold), chunk_sizes, rules)
    if conflict is not None:
        warnings.warn(conflict, stacklevel=2)
    return report


def _compare_texts(pairs, chunk_sizes, rules, fast=False):
    """`compare` over gold text *pairs* and their *fast*, as
    `_parse_gold` returns them: ``(report, conflict)``, with *conflict*
    as `_score` returns it."""
    sizes = list(chunk_sizes)
    for previous, size in zip([0, *sizes], sizes):
        if size < 1:
            raise ValueError(f"chunk sizes must be positive, got {sizes}")
        if size <= previous:
            raise ValueError(f"chunk sizes must be ascending, got {sizes}")
        if size > len(pairs):
            raise ValueError(
                f"chunk size {size} exceeds gold length {len(pairs)}"
            )
    points, conflict = _score(
        pairs, lambda text: _both(rules, text, fast), 2, sizes
    )
    return _report([_row(*point) for point in points]), conflict


def _row(
    n_words: int, n_unique: int, correct_strip: int, correct_light: int
) -> EvalRow:
    return EvalRow(
        n_words=n_words,
        n_unique=n_unique,
        n_correct_strip=correct_strip,
        n_correct_light=correct_light,
        acc_strip=accuracy(correct_strip, n_unique),
        acc_light=accuracy(correct_light, n_unique),
    )


def _report(rows: "list[EvalRow]") -> EvalReport:
    """Rows plus the arithmetic mean of each engine's accuracies."""
    if not rows:
        return EvalReport((), None, None)
    avg_strip = sum(r.acc_strip for r in rows) / len(rows)
    avg_light = sum(r.acc_light for r in rows) / len(rows)
    return EvalReport(tuple(rows), Fraction(avg_strip), Fraction(avg_light))


def _fields(row: EvalRow, accuracy_text) -> tuple:
    """One row in ``CSV_HEADER`` order, accuracies shown by *accuracy_text*."""
    return (
        row.n_words,
        row.n_unique,
        row.n_correct_strip,
        accuracy_text(row.acc_strip),
        row.n_correct_light,
        accuracy_text(row.acc_light),
    )


def _cells(report: EvalReport) -> "list[tuple[str, ...]]":
    """Header, one line per row and the ``avg`` line, as display strings."""
    lines = [CSV_HEADER]
    for row in report.rows:
        lines.append(tuple(map(str, _fields(row, format_accuracy))))
    if report.rows:
        lines.append(
            (
                "avg",
                "",
                "",
                format_accuracy(report.avg_strip),
                "",
                format_accuracy(report.avg_light),
            )
        )
    return lines


def _render_table(report: EvalReport) -> str:
    widths = (8, 8, 13, 9, 13, 9)
    return "".join(
        "  ".join(c.ljust(w) for c, w in zip(cells, widths)).rstrip() + "\n"
        for cells in _cells(report)
    )


def _render_csv(report: EvalReport) -> str:
    # No cell holds a comma, a quote or a line break, so none is quoted.
    return "".join(",".join(cells) + "\n" for cells in _cells(report))


def _fraction_fields(value: Fraction | None) -> "str | None":
    return None if value is None else str(value)


def _render_json(report: EvalReport) -> str:
    payload = {
        "rows": [
            dict(zip(CSV_HEADER, _fields(row, str))) for row in report.rows
        ],
        "avg_strip": _fraction_fields(report.avg_strip),
        "avg_light": _fraction_fields(report.avg_light),
    }
    return json.dumps(payload, indent=2) + "\n"


_RENDERERS = {
    "table": _render_table,
    "csv": _render_csv,
    "json": _render_json,
}

REPORT_FORMATS = tuple(_RENDERERS)


def render(report: EvalReport, format: str = "table") -> str:
    """Serialize a report deterministically in the chosen format.

    Percentages are truncated for display in ``table`` and ``csv``; the
    ``json`` format carries exact fractions.  Counts appear verbatim in
    every format.
    """
    try:
        renderer = _RENDERERS[format]
    except KeyError:
        raise ValueError(f"unknown report format: {format!r}") from None
    return renderer(report)


@lru_cache(maxsize=1)
def bundled_gold() -> tuple[GoldEntry, ...]:
    """The shipped gold set: generated paradigms plus hand-picked forms."""
    entries = [
        GoldEntry(surface, stem) for surface, stem in build_corpus()
    ]
    entries.extend(extra_gold())
    return tuple(entries)


@lru_cache(maxsize=1)
def extra_gold() -> tuple[GoldEntry, ...]:
    """The hand-picked gold entries shipped alongside the paradigms."""
    return tuple(load_gold(_packaged_text("extra_gold.tsv")))
