"""Gold loading, accuracy arithmetic, and report rendering."""

import csv
import io
import json
import random
import unicodedata
import warnings
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from tamilstem import evaluation
from tamilstem.cli import main
from tamilstem.evaluation import (
    REPORT_FORMATS,
    EvalReport,
    EvalRow,
    GoldConflictWarning,
    GoldEntry,
    GoldError,
    accuracy,
    bundled_gold,
    compare,
    evaluate,
    extra_gold,
    format_accuracy,
    load_gold,
    render,
)
from tamilstem.graphemes import word
from tamilstem.paradigm import default_roots, generate_forms
from tamilstem.rules import builtin_rules, parse_rules
from tamilstem.stemmers import light_stem, strip_stem


def _gold(pairs):
    return [GoldEntry(word(s), word(t)) for s, t in pairs]


def test_load_gold_basics():
    text = "பெண்கள்\tபெண்\n# comment\n\nமரம்\tமரம்\n"
    entries = load_gold(text)
    assert [(e.surface.text, e.expected_stem.text) for e in entries] == [
        ("பெண்கள்", "பெண்"),
        ("மரம்", "மரம்"),
    ]
    assert load_gold("\ufeff" + text) == entries
    crlf = text.replace("\n", "\r\n")
    assert load_gold(crlf) == load_gold("\ufeff" + crlf) == entries
    assert load_gold("") == load_gold("# only\n\n \r\n# comments\n") == []


@pytest.mark.parametrize(
    "text,line",
    [
        ("abc\n", 1),
        ("ஒன்று\tஇரண்டு\tமூன்று\n", 1),
        ("ஒன்று\tஒன்று\n\tஇரண்டு\n", 2),
        pytest.param("\ufeffa\tb\tc\nx\ty\na\tb\tc\n", 1, id="bom-repeated"),
        pytest.param(
            "a\tb\nc\td\na\tb\nc\td\ne\nc\td\ne\n", 5, id="late-repeated"
        ),
        pytest.param(
            "a\tb\n# \udcff\na\tb\n# \udcff\n", 2, id="comment-repeated"
        ),
    ],
)
def test_load_gold_errors_carry_line_numbers(text, line):
    with pytest.raises(GoldError, match=f"line {line}") as exc:
        load_gold(text)
    assert exc.value.line == line


def _load_gold_line_by_line(text):
    """`load_gold` without its memo: both fields of each line through
    `word`, for well-formed gold text."""
    entries = []
    for line in text.removeprefix("\ufeff").split("\n"):
        line = line.strip()
        if line and not line.startswith("#"):
            surface, stem = line.split("\t")
            entries.append(GoldEntry(word(surface.strip()), word(stem.strip())))
    return entries


@pytest.mark.parametrize("seed", range(3))
def test_load_gold_matches_a_line_by_line_oracle(seed):
    # A Zipf sample of bundled-gold lines (so fields repeat, as in running
    # text) and `generate` output (each stem on many lines), with comments,
    # blank lines, CRLF endings, padded fields and decomposed spellings
    # that share a `word` with their composed form.
    rng = random.Random(seed)
    bundled = [
        f"{e.surface.text}\t{e.expected_stem.text}" for e in bundled_gold()
    ]
    weights = [1 / rank for rank in range(1, len(bundled) + 1)]
    lines = rng.choices(bundled, weights, k=1500)
    lines += [
        f"{surface.text}\t{stem.text}"
        for root, paradigm in default_roots()
        for surface, stem in generate_forms(root, paradigm)
    ]
    rng.shuffle(lines)
    noisy = []
    for line in lines:
        kind = rng.randrange(6)
        if kind == 0:
            noisy.append("# " + line)
        elif kind == 1:
            noisy.extend(["", line + "\r"])
        elif kind == 2:
            noisy.append(" " + line.replace("\t", " \t") + " ")
        elif kind == 3:
            noisy.append(line.replace("\u0bca", "\u0bc6\u0bbe"))
        else:
            noisy.append(line)
    # Line 1, after the BOM, repeats as the last two, ended LF and CRLF.
    noisy = [lines[0], *noisy, lines[0], lines[0] + "\r"]
    text = "\ufeff" + "\n".join(noisy) + "\n"
    expected = _load_gold_line_by_line(text)
    assert len(expected) > 1500
    assert load_gold(text) == expected


def _main(argv, text):
    """``main(argv)`` on *text* as stdin: (exit code, stdout, stderr)."""
    stdout, stderr = io.StringIO(), io.StringIO()
    code = main(argv, stdin=io.StringIO(text), stdout=stdout, stderr=stderr)
    return code, stdout.getvalue(), stderr.getvalue()


def _memo_gold_text(seed):
    """Gold text whose lines repeat Zipf-wise, with a BOM on line 1 (its
    line repeated later without one), CRLF endings and outer whitespace
    on some repeats, comments, blank lines and one conflicting duplicate."""
    rng = random.Random(seed)
    pool = [f"{e.surface.text}\t{e.expected_stem.text}" for e in bundled_gold()]
    rng.shuffle(pool)
    weights = [1 / rank for rank in range(1, len(pool) + 1)]
    lines = rng.choices(pool, weights, k=3000)
    surface = lines[1].split("\t")[0]
    lines.append(f"{surface}\t{surface}ம்")  # a conflict
    rng.shuffle(lines)
    noisy = []
    for line in lines:
        kind = rng.randrange(8)
        if kind == 0:
            noisy.append(line + "\r")
        elif kind == 1:
            noisy.append(" " + line + " ")
        elif kind == 2:
            noisy.extend(["# " + line, "", line])
        else:
            noisy.append(line)
    hot = pool[0]
    return "\ufeff" + "\n".join([hot, *noisy, hot, hot + "\r"]) + "\n"


@pytest.mark.parametrize("seed", range(2))
def test_load_gold_line_memo_matches_each_line_parsed_alone(seed):
    text = _memo_gold_text(seed)
    oracle, data_lines = [], []
    # The raw lines as `_data_lines` yields them: line 1 without its BOM.
    for line in text.removeprefix("\ufeff").split("\n"):
        alone = load_gold(line)
        assert len(alone) <= 1
        oracle.extend(alone)
        data_lines.extend([line] * len(alone))
    assert len(set(data_lines)) < len(oracle) > 3000
    gold = load_gold(text)
    assert gold == oracle

    # Equal raw lines give the same entry object, the BOM line included.
    shared = {}
    for line, entry in zip(data_lines, gold, strict=True):
        assert shared.setdefault(line, entry) is entry
    assert gold[data_lines.index(data_lines[0], 1)] is gold[0]

    chunks = [100, 1000, len(gold)]
    report, message = _one_conflict_warning(compare, gold, chunks)
    assert (report, message) == _one_conflict_warning(compare, oracle, chunks)
    for engine in (strip_stem, light_stem):
        assert _one_conflict_warning(evaluate, engine, gold) == (
            _one_conflict_warning(evaluate, engine, oracle)
        )


def test_load_gold_names_the_first_line_of_a_repeated_bad_field():
    # A malformed line and an undecodable one (a lone surrogate, as a
    # failed decode leaves it), each on lines 3 and 5.
    for bad in ("மரம்", "மர\udcffம்\tமரம்"):
        text = f"மரம்\tமரம்\nபடி\tபடி\n{bad}\nபடி\tபடி\n{bad}\n"
        with pytest.raises(GoldError, match="^line 3: ") as exc:
            load_gold(text)
        assert exc.value.line == 3
        message = _cli_message(bad, exc.value)
        for command in ("eval", "compare"):
            assert _main([command], text) == (
                65, "", f"tamilstem: error: <stdin>: {message}\n"
            )


def _cli_message(bad, error):
    """What the CLI reports for stdin gold whose first bad line, line 3,
    is *bad*, where `load_gold` raises *error*: a lone surrogate that a
    bad byte escapes to is reported as a ``--gold`` file of the bytes
    has it reported."""
    if "\udcff" in bad:
        return "line 3: not valid UTF-8 (invalid start byte)"
    return str(error)


def _nfd(text):
    return unicodedata.normalize("NFD", text)


def _mixed_spelling_gold_text(seed):
    """Bundled-gold lines, each with its surface, its stem, both or
    neither spelled in NFD; Latin fields with combining marks; conflicts
    and agreeing repeats whose surface is spelled in NFD; repeated
    lines, a BOM and CRLF endings."""
    rng = random.Random(seed)
    pool = [(e.surface.text, e.expected_stem.text) for e in bundled_gold()]
    # NFD splits ொ, ோ, ௌ and ஔ, so these lines have two spellings.
    decomposing = [p for p in pool if _nfd("\t".join(p)) != "\t".join(p)]
    latin = [
        ("cafe\u0301s", "cafe\u0301"),
        ("cafés", "café"),  # the NFC spelling of the line above
        ("x\u0301yz", "x\u0301"),  # no precomposed x́: it stays as it is
        ("nai\u0308ve", "naïve"),
    ]
    lines = []
    for surface, stem in rng.sample(pool, 300) + decomposing + latin:
        kind = rng.randrange(4)
        if kind & 1:
            surface = _nfd(surface)
        if kind & 2:
            stem = _nfd(stem)
        lines.append(f"{surface}\t{stem}")
    for surface, stem in rng.sample(decomposing, 5):
        lines.append(f"{_nfd(surface)}\t{stem}ம்")  # a conflict
        lines.append(f"{_nfd(surface)}\t{_nfd(stem)}")  # no conflict
    lines += rng.choices(lines, k=200)
    rng.shuffle(lines)
    return "\ufeff" + "\r\n".join(lines) + "\r\n"


@pytest.mark.parametrize("seed", range(3))
def test_cli_compare_prints_the_library_report_on_mixed_spellings(seed):
    text = _mixed_spelling_gold_text(seed)
    gold = load_gold(text)
    n = len(gold)
    surfaces = {e.surface.text for e in gold}
    assert n > 600 and len(surfaces) < n
    assert all(_nfd(s) == s or _nfd(s) not in surfaces for s in surfaces)
    for chunks in ([n], [1, n // 3, n]):
        report, message = _one_conflict_warning(compare, gold, chunks)
        named = message.split(": ", 1)[1].split(", ")
        assert any(_nfd(s) != s for s in named)
        sizes = ",".join(map(str, chunks))
        for fmt in REPORT_FORMATS:
            argv = ["compare", "--chunks", sizes, "--format", fmt]
            assert _main(argv, text) == (
                0, render(report, fmt), f"tamilstem: warning: {message}\n"
            )


@pytest.mark.parametrize(
    "bad",
    [
        "மர\udcffம்\tமரம்",
        "மரம்\tமர\udcffம்",
        _nfd("கொடு") + "\udcff\tகொடு",
        _nfd("கொடு") + "\t\udcff" + _nfd("கொடு"),
        "மரம்",
        _nfd("கொடு"),
        "மரம்\tமரம்\tமரம்",
        pytest.param("# மர\udcffம்", id="comment"),
    ],
)
def test_cli_compare_names_the_first_bad_line_as_load_gold_does(bad):
    # The bad line, line 3, comes after an NFC line and an NFD one and
    # repeats on line 5.
    first = "படித்தோம்\tபடி"
    text = f"\ufeff{first}\r\n{_nfd(first)}\n{bad}\nமரம்\tமரம்\n{bad}\n"
    with pytest.raises(GoldError, match="^line 3: ") as exc:
        load_gold(text)
    message = _cli_message(bad, exc.value)
    for argv in (["compare"], ["compare", "--chunks", "1", "--format", "csv"]):
        assert _main(argv, text) == (
            65, "", f"tamilstem: error: <stdin>: {message}\n"
        )


def test_eval_output_is_the_same_when_every_gold_line_is_doubled():
    generated = _main(["generate", "--paradigm", "verb"], "படி\nஓடு\n")[1]
    conflicting = generated + "படித்தேன்\tவேறு\n"
    for text in (generated, conflicting):
        doubled = "".join(line + line for line in text.splitlines(True))
        for algo in ("strip", "light"):
            argv = ["eval", "--algo", algo]
            assert _main(argv, doubled) == _main(argv, text)


def test_accuracy_is_exact():
    assert accuracy(30, 37) == Fraction(3000, 37)
    assert accuracy(5, 10) == Fraction(50)
    assert accuracy(7, 7) == Fraction(100)
    assert accuracy(0, 4) == 0


def test_accuracy_errors():
    with pytest.raises(ValueError, match="no unique words"):
        accuracy(0, 0)
    with pytest.raises(ValueError, match="within"):
        accuracy(5, 4)
    with pytest.raises(ValueError, match="within"):
        accuracy(-1, 4)


def test_format_accuracy_truncates_toward_zero():
    assert format_accuracy(accuracy(30, 37)) == "81.0"    # 81.08…
    assert format_accuracy(accuracy(101, 118)) == "85.5"  # 85.59… not 85.6
    assert format_accuracy(accuracy(152, 182)) == "83.5"
    assert format_accuracy(accuracy(200, 237)) == "84.3"
    assert format_accuracy(Fraction(100)) == "100.0"
    assert format_accuracy(Fraction(0)) == "0.0"
    assert format_accuracy(Fraction(999, 10)) == "99.9"
    assert format_accuracy(Fraction(-1, 10)) == "-0.1"
    assert format_accuracy(Fraction(-3, 2)) == "-1.5"
    assert format_accuracy(Fraction(-1, 20)) == "0.0"  # never "-0.0"


def test_evaluate_paradigm_is_perfect():
    gold = [GoldEntry(s, r) for s, r in generate_forms("படி", "verb")]
    n_unique, n_correct = evaluate(light_stem, gold)
    assert n_unique == 39
    assert n_correct == n_unique


def test_evaluate_counts_wrong_stems():
    gold = _gold([("படித்தேன்", "மரம்"), ("பாடினேன்", "பாடினேன்")])
    n_unique, n_correct = evaluate(light_stem, gold)
    assert (n_unique, n_correct) == (2, 1)


def test_evaluate_identity_single_entry():
    n_unique, n_correct = evaluate(
        light_stem, _gold([("மரம்", "மரம்")])
    )
    assert (n_unique, n_correct) == (1, 1)


def test_evaluate_rejects_empty_gold():
    with pytest.raises(ValueError, match="empty gold"):
        evaluate(light_stem, [])


def test_evaluate_deduplicates_first_wins():
    gold = _gold(
        [("படித்தேன்", "படி"), ("படித்தேன்", "வேறு"), ("மரம்", "மரம்")]
    )
    with pytest.warns(GoldConflictWarning, match="படித்தேன்"):
        n_unique, n_correct = evaluate(light_stem, gold)
    assert (n_unique, n_correct) == (2, 2)


def test_evaluate_hands_the_stemmer_each_surfaces_first_word():
    # Equal surfaces from separate `word` calls: the stemmer gets the
    # first entry's object, once.
    gold = _gold([("மரம்", "மரம்"), ("படி", "படி"), ("மரம்", "மரம்")])
    assert gold[0].surface is not gold[2].surface
    seen = []

    def stemmer(w):
        seen.append(w)
        return light_stem(w)

    assert evaluate(stemmer, gold) == (2, 2)
    assert [id(w) for w in seen] == [id(e.surface) for e in gold[:2]]


def test_evaluate_duplicates_without_conflict_are_silent():
    gold = _gold([("மரம்", "மரம்"), ("மரம்", "மரம்")])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert evaluate(light_stem, gold) == (1, 1)


def _conflicting_surfaces(gold):
    """The gold policy's conflicts, found by a second pass over *gold*."""
    first = {}
    for entry in gold:
        first.setdefault(entry.surface.text, entry.expected_stem.text)
    return sorted(
        {
            entry.surface.text
            for entry in gold
            if entry.expected_stem.text != first[entry.surface.text]
        }
    )


def _one_conflict_warning(call, *args):
    """``call(*args)`` and the message of the one `GoldConflictWarning`
    it raises, which must point at this file."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        result = call(*args)
    (warning,) = [w for w in caught if w.category is GoldConflictWarning]
    assert warning.filename == __file__
    return result, str(warning.message)


def test_compare_and_evaluate_share_one_gold_policy():
    rng = random.Random(9)
    pool = list(bundled_gold())
    weights = [1 / rank for rank in range(1, len(pool) + 1)]
    gold = rng.choices(pool, weights=weights, k=600)
    for position in (3, 120, 333, 590):  # a conflict in every prefix
        entry = gold[rng.randrange(position)]
        other = word(entry.expected_stem.text + "ம்")
        gold.insert(position, GoldEntry(entry.surface, other))
    chunks = [50, 200, 451, len(gold)]

    report, message = _one_conflict_warning(compare, gold, chunks)
    assert message == (
        "conflicting expected stems for duplicated surfaces "
        "(first occurrence wins): " + ", ".join(_conflicting_surfaces(gold))
    )
    assert [row.n_words for row in report.rows] == chunks
    for row in report.rows:
        prefix = gold[: row.n_words]
        expected = ", ".join(_conflicting_surfaces(prefix))
        for engine, n_correct in (
            (strip_stem, row.n_correct_strip),
            (light_stem, row.n_correct_light),
        ):
            scores, message = _one_conflict_warning(evaluate, engine, prefix)
            assert scores == (row.n_unique, n_correct)
            assert message.endswith(f"(first occurrence wins): {expected}")


def test_evaluate_order_insensitive_without_duplicates():
    gold = [GoldEntry(s, r) for s, r in generate_forms("மரம்", "noun")]
    shuffled = gold[:]
    random.Random(3).shuffle(shuffled)
    assert evaluate(strip_stem, gold) == evaluate(strip_stem, shuffled)


def _mixed_gold(n_extra_wrong=0):
    gold = [GoldEntry(s, r) for s, r in generate_forms("படி", "verb")]
    gold += _gold([("w%d" % i, "x") for i in range(n_extra_wrong)])
    return gold


def test_compare_row_shape():
    gold = _mixed_gold(n_extra_wrong=2)
    report = compare(gold, [10, len(gold)])
    assert len(report.rows) == 2
    first, last = report.rows
    assert first.n_words == 10
    assert last.n_words == len(gold)
    assert first.n_unique <= last.n_unique
    assert last.n_correct_light == 39
    assert last.acc_light == accuracy(39, 41)
    assert report.avg_light == (first.acc_light + last.acc_light) / 2


def test_compare_single_chunk_average_equals_row():
    gold = _mixed_gold()
    report = compare(gold, [len(gold)])
    (row,) = report.rows
    assert report.avg_strip == row.acc_strip
    assert report.avg_light == row.acc_light


def test_compare_validates_chunks():
    gold = _mixed_gold()
    with pytest.raises(ValueError, match="ascending"):
        compare(gold, [10, 10])
    with pytest.raises(ValueError, match="ascending"):
        compare(gold, [20, 10])
    with pytest.raises(ValueError, match="positive"):
        compare(gold, [0, 10])
    with pytest.raises(ValueError, match=str(len(gold) + 5)):
        compare(gold, [len(gold) + 5])


def test_compare_empty_chunks_gives_empty_report():
    report = compare(_mixed_gold(), [])
    assert report == EvalReport((), None, None)


def _reference_report(gold, sizes, rules):
    """`compare`'s report rebuilt from `evaluate` on each prefix, one
    engine at a time."""
    rows = []
    for size in sizes:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", GoldConflictWarning)
            (n_unique, strip), (_, light) = (
                evaluate(lambda w: engine(w, rules), gold[:size])
                for engine in (strip_stem, light_stem)
            )
        rows.append(
            EvalRow(
                size,
                n_unique,
                strip,
                light,
                accuracy(strip, n_unique),
                accuracy(light, n_unique),
            )
        )
    return EvalReport(
        tuple(rows),
        sum(r.acc_strip for r in rows) / len(rows),
        sum(r.acc_light for r in rows) / len(rows),
    )


# Case ஐ and உக்கு hand over to Case only, so after them light takes
# ள் where strip takes the longer Plural கள்; Plural கள் ends light's
# chain where strip goes on.
_PARTING_RULES = (
    "Case\tஐ\t\t1\tCase\n"
    "Case\tஉக்கு\t\t1\tCase\n"
    "Case\tள்\t\t1\t\n"
    "Plural\tகள்\t\t1\t\n"
)
_PARTING_GOLD = (
    "பெண்கள்ஐ\tபெண்க\n"
    "மரம்கள்உக்கு\tமரம்\n"
    "பெண்கள்\tபெண்\n"
    "மரஉக்குகள்\tமர\n"
    "படம்ஐ\tபடம்\n"
    "பெண்கள்\tவேறு\n"  # a conflict after the last chunk
)


def test_compare_where_the_engines_part_ways(tmp_path):
    rules = parse_rules(_PARTING_RULES)
    gold = load_gold(_PARTING_GOLD)
    assert all(
        strip_stem(e.surface, rules) != light_stem(e.surface, rules)
        for e in gold[:2] + gold[3:4]
    )
    expected = _reference_report(gold, [2, 5], rules)
    last = expected.rows[-1]
    assert (last.n_correct_strip, last.n_correct_light) == (4, 3)
    report, message = _one_conflict_warning(compare, gold, [2, 5], rules)
    assert report == expected
    assert message.endswith("(first occurrence wins): பெண்கள்")
    path = tmp_path / "parting.tsv"
    path.write_text(_PARTING_RULES, encoding="utf-8")
    for fmt in ("table", "csv", "json"):
        stdout, stderr = io.StringIO(), io.StringIO()
        argv = ["compare", "--rules", str(path), "--chunks", "2,5"]
        code = main(
            argv + ["--format", fmt],
            stdin=io.StringIO(_PARTING_GOLD),
            stdout=stdout,
            stderr=stderr,
        )
        assert code == 0
        assert stdout.getvalue() == render(expected, fmt)
        assert "பெண்கள்" in stderr.getvalue()


def test_compare_renders_as_the_engines_one_at_a_time():
    bundled = list(bundled_gold())
    readme = [GoldEntry(s, r) for s, r in generate_forms("படி", "verb")]
    for gold, sizes in (
        (bundled, [200, 400, 600, 800, len(bundled)]),
        (readme, [20, 41]),
    ):
        report = compare(gold, sizes)
        expected = _reference_report(gold, sizes, builtin_rules())
        for fmt in ("table", "csv", "json"):
            assert render(report, fmt) == render(expected, fmt)


def _score_per_line(pairs, stems, engines, boundaries):
    """`evaluation._score` as one loop over every line: the reference
    the walk over each chunk's distinct pairs is checked against."""
    first = {}
    conflicts = set()
    correct = [0] * engines
    ends = set(boundaries)
    last = max(ends, default=0)
    points = []
    for position, (surface, stem) in enumerate(pairs, start=1):
        expected = first.get(surface)
        if expected is None:
            first[surface] = stem
            if position <= last:
                for index, got in enumerate(stems(surface)):
                    if got == stem:
                        correct[index] += 1
        elif expected != stem:
            conflicts.add(surface)
        if position in ends:
            points.append((position, len(first), *correct))
    if not conflicts:
        return points, None
    return points, GoldConflictWarning(
        "conflicting expected stems for duplicated surfaces "
        f"(first occurrence wins): {', '.join(sorted(conflicts))}"
    )


@st.composite
def _pairs_and_boundaries(draw):
    """Pairs over three surfaces and two stems, so repeats and conflicts
    occur, and strictly ascending boundaries within them."""
    pairs = draw(
        st.lists(st.tuples(st.sampled_from("abc"), st.sampled_from("xy")))
    )
    ends = draw(st.sets(st.integers(1, len(pairs)))) if pairs else set()
    return pairs, sorted(ends)


@settings(max_examples=500, derandomize=True)
@given(_pairs_and_boundaries())
def test_score_matches_a_per_line_loop(drawn):
    # The points, the conflict message and the surfaces `stems` is
    # asked, in order, are those of the loop over every line.
    pairs, boundaries = drawn
    results = []
    for score in (_score_per_line, evaluation._score):
        asked = []

        def stems(surface):
            asked.append(surface)
            return "x", "yx"[surface == "a"]

        points, conflict = score(pairs, stems, 2, boundaries)
        results.append((points, conflict and str(conflict), asked))
    assert results[1] == results[0]


def test_compare_stems_nothing_after_the_last_chunk(monkeypatch):
    gold = list(bundled_gold())
    late = gold[-1]
    gold.append(GoldEntry(late.surface, word(late.expected_stem.text + "ம்")))
    stemmed = []
    both = evaluation._both

    def counting(rules, text, *fast):
        stemmed.append(text)
        return both(rules, text, *fast)

    monkeypatch.setattr(evaluation, "_both", counting)
    report, message = _one_conflict_warning(compare, gold, [10, 25])
    assert stemmed == list(dict.fromkeys(e.surface.text for e in gold[:25]))
    assert message.endswith(f"(first occurrence wins): {late.surface.text}")
    assert report == _reference_report(gold, [10, 25], builtin_rules())


def test_render_table_structure():
    gold = _mixed_gold()
    out = render(compare(gold, [10, 41]), "table")
    lines = out.strip().split("\n")
    assert len(lines) == 4  # header + 2 rows + averages
    assert lines[0].startswith("n_words")
    assert lines[-1].startswith("avg")


def test_render_csv_and_round_trip():
    gold = _mixed_gold(n_extra_wrong=3)
    report = compare(gold, [7, 20, len(gold)])
    out = render(report, "csv")
    lines = out.strip().split("\n")
    assert lines[0] == "n_words,n_unique,correct_strip,acc_strip,correct_light,acc_light"
    assert len(lines) == 5
    assert lines[-1].startswith("avg,,,")
    # The counts read back verbatim.
    rows = list(csv.reader(io.StringIO(out)))[1:-1]
    assert [[int(r[i]) for i in (0, 1, 2, 4)] for r in rows] == [
        [r.n_words, r.n_unique, r.n_correct_strip, r.n_correct_light]
        for r in report.rows
    ]


def test_render_empty_report_is_header_only():
    out = render(EvalReport((), None, None), "csv")
    assert out == "n_words,n_unique,correct_strip,acc_strip,correct_light,acc_light\n"


def test_render_json_full_precision():
    gold = _mixed_gold(n_extra_wrong=1)
    report = compare(gold, [len(gold)])
    payload = json.loads(render(report, "json"))
    (row,) = payload["rows"]
    assert Fraction(row["acc_light"]) == report.rows[0].acc_light
    assert Fraction(payload["avg_strip"]) == report.avg_strip


def test_render_unknown_format():
    with pytest.raises(ValueError, match="unknown report format"):
        render(EvalReport((), None, None), "xml")


def test_bundled_gold_contents():
    gold = bundled_gold()
    assert len(gold) >= 850
    extras = extra_gold()
    assert len(extras) >= 50
    lookup = {e.surface.text: e.expected_stem.text for e in extras}
    assert lookup["ஓடிய"] == "ஓடு"          # participle substitution
    assert lookup["மரங்கள்"] == "மரம்"       # plural alternation
    assert lookup["பாடும்"] == "பாடு"        # habitual -um
