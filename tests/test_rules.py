"""Rule file parsing, validation, and matching."""

import dataclasses
import io
import os
import subprocess
import sys
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

import tamilstem
from tamilstem import rules as rules_module
from tamilstem.cli import EX_OK, EX_RULE_CONFLICT, main
from tamilstem.evaluation import GoldError, load_gold
from tamilstem.graphemes import (
    _DEPENDENT_SIGNS,
    _JOINS,
    _LETTER,
    _NOT_FAST_NFC,
    GraphemeWord,
    _joins_previous,
    normalize,
    segment,
    word,
)
from tamilstem.paradigm import load_roots
from tamilstem.rules import (
    ALL_CLASSES,
    RuleConflictError,
    RuleError,
    RuleSet,
    SuffixClass,
    SuffixRule,
    _class_mask,
    _first_text_match,
    _merges,
    _scan,
    apply_rule,
    builtin_rules,
    candidates,
    parse_rules,
    render_rules,
)
from tamilstem.stemmers import (
    StemResult,
    _ALL,
    _LIGHT,
    _STRIP,
    _both,
    _walk,
    _walk_text,
    light_stem,
    strip_stem,
)

GOOD_LINE = "Plural\tகள்\t\t2\tCase,Vocative\n"


def _problems(text):
    """What ``tamilstem rules-validate`` prints for rule file *text*:
    every problem, one a line."""
    return [str(problem) for problem in _scan(text)[1]]


def test_parse_single_rule():
    rs = parse_rules(GOOD_LINE)
    assert len(rs) == 1
    (rule,) = rs.rules
    assert rule.klass is SuffixClass.PLURAL
    assert rule.pattern.text == "கள்"
    assert rule.replacement.text == ""
    assert rule.min_stem == 2
    assert rule.next_classes == frozenset(
        {SuffixClass.CASE, SuffixClass.VOCATIVE}
    )


def test_parse_drops_a_leading_bom():
    assert parse_rules("\ufeff" + GOOD_LINE) == parse_rules(GOOD_LINE)
    crlf = GOOD_LINE.replace("\n", "\r\n")
    assert parse_rules(crlf) == parse_rules("\ufeff" + crlf) == parse_rules(GOOD_LINE)
    assert _problems("\ufeffCase\tஐ\t\t1\t\n") == []


def test_parse_empty_file():
    assert len(parse_rules("")) == 0
    assert len(parse_rules("# only a comment\n\n")) == 0


def test_parse_replacement_and_terminal():
    rs = parse_rules("Plural\tங்கள்\tம்\t2\t\n")
    (rule,) = rs.rules
    assert rule.replacement.text == "ம்"
    assert rule.next_classes == frozenset()


@pytest.mark.parametrize(
    "line,fragment",
    [
        ("Plural\tகள்\t\t2", "expected 5"),
        ("Plural\tகள்\t\t2\tCase\textra", "expected 5"),
        ("Misc\tகள்\t\t2\t", "unknown suffix class"),
        ("Plural\t\t\t2\t", "empty pattern"),
        ("Plural\t \u00a0\t\t2\t", "empty pattern"),
        ("Plural\tகள்\tகள்\t2\t", "not shorter"),
        ("Plural\tகள்\tங்கள்\t2\t", "not shorter"),
        ("Plural\tகள்\t\tx\t", "not an integer"),
        ("Plural\tகள்\t\t0\t", ">= 1"),
        ("Plural\tகள்\t\t2\tNope", "unknown next class"),
        # A line with several defects reports the first in field order.
        ("Plural\t\tகள்\tx\tNope", "empty pattern"),
        ("Plural\t\t\udcff\t1\t", "empty pattern"),
        ("Plural\tகள்\tகள்கள்\t0\tNope", "not shorter"),
        ("Plural\tகள்\t\tx\tNope", "not an integer"),
    ],
)
def test_parse_errors(line, fragment):
    with pytest.raises(RuleError, match=fragment):
        parse_rules(line + "\n")


def test_parse_errors_carry_line_numbers():
    with pytest.raises(RuleError, match="line 3") as exc:
        parse_rules("# header\n\nbadline\n")
    assert exc.value.line == 3


def test_duplicate_rule_is_a_conflict():
    text = GOOD_LINE + "# gap\n" + GOOD_LINE
    with pytest.raises(RuleConflictError, match="lines 1 and 3") as exc:
        parse_rules(text)
    assert exc.value.first_line == 1
    assert exc.value.second_line == 3


def test_same_pattern_in_two_classes_is_not_a_conflict():
    text = "Plural\tகள்\t\t2\t\nCase\tகள்\t\t2\t\n"
    assert len(parse_rules(text)) == 2


def test_validate_collects_every_problem():
    text = (
        "Plural\tகள்\t\t2\t\n"
        "badline\n"
        "Misc\tஐ\t\t2\t\n"
        "Plural\tகள்\t\t2\t\n"
    )
    problems = _problems(text)
    assert len(problems) == 3
    assert any("line 2" in p for p in problems)
    assert any("line 3" in p for p in problems)
    assert any("duplicate rule" in p and "lines 1 and 4" in p for p in problems)


def test_validate_clean_file():
    assert _problems(GOOD_LINE) == []


# A padded rule file: blanks, a no-break space and an ideographic space
# around each pattern and replacement.
_PLAIN_RULES = "Case\tஉக்கு\t\t2\tPlural\nPlural\tங்கள்\tம்\t1\t\n"
_PADDED_RULES = (
    "Case\t உக்கு\u00a0\t \t2\tPlural\n"
    "Plural\t\u3000ங்கள்  \t ம் \t1\t\n"
)


def test_whitespace_around_pattern_and_replacement_is_ignored():
    assert parse_rules(_PADDED_RULES) == parse_rules(_PLAIN_RULES)
    assert _problems(_PADDED_RULES) == _problems(_PLAIN_RULES) == []
    rs = parse_rules(_PADDED_RULES)
    assert light_stem("மரம்உக்கு", rs).stem.text == "மரம்"
    assert light_stem("மரங்கள்உக்கு", rs).stem.text == "மரம்"
    # A padded line is the same rule as the unpadded one.
    assert _problems(_PLAIN_RULES + _PADDED_RULES) == [
        "duplicate rule for class Case pattern 'உக்கு': lines 1 and 3",
        "duplicate rule for class Plural pattern 'ங்கள்': lines 2 and 4",
    ]


def test_render_parse_round_trip():
    rs = builtin_rules()
    assert parse_rules(render_rules(rs)) == rs


def test_render_empty():
    assert render_rules(parse_rules("")) == ""


def _rules_by_key(rs):
    return {(rule.klass, rule.pattern.text): rule for rule in rs.rules}


def test_builtin_contents():
    rs = builtin_rules()
    assert len(rs) >= 80
    find = _rules_by_key(rs).get
    assert find((SuffixClass.CASE, "உக்கு")) is not None
    neg = find((SuffixClass.NEGATIVE_COMPOUND, "க்கமாட்டேன்"))
    assert neg is not None
    plural = find((SuffixClass.PLURAL, "ங்கள்"))
    assert plural is not None
    assert plural.replacement.text == "ம்"
    participle = find((SuffixClass.ADJECTIVAL_PARTICIPLE, "டிய"))
    assert participle is not None
    assert participle.replacement.text == "டு"


def test_builtin_min_stem_floor():
    assert all(rule.min_stem >= 2 for rule in builtin_rules().rules)


def test_builtin_terminal_classes():
    rs = builtin_rules()
    for rule in rs.rules:
        if rule.klass in (SuffixClass.PLURAL, SuffixClass.ADJECTIVAL_PARTICIPLE):
            assert rule.next_classes == frozenset()
        if rule.klass is SuffixClass.CASE:
            assert rule.next_classes == frozenset({SuffixClass.PLURAL})


def test_candidates_ordering_and_filtering():
    rs = builtin_rules()
    ranked = candidates(rs, word("படித்தேன்"), ALL_CLASSES)
    assert ranked
    assert ranked[0].pattern.text == "த்தேன்"
    lengths = [len(r.pattern) for r in ranked]
    assert lengths == sorted(lengths, reverse=True)


def test_candidates_respects_allowed_classes():
    rs = builtin_rules()
    only_plural = candidates(
        rs, word("படித்தேன்"), frozenset({SuffixClass.PLURAL})
    )
    assert only_plural == []


def test_candidates_respects_min_stem():
    rs = builtin_rules()
    # Stripping த்தேன் from the suffix alone would leave nothing.
    assert candidates(rs, word("த்தேன்"), ALL_CLASSES) == []
    assert candidates(rs, word("படி"), ALL_CLASSES) == []


def test_candidates_empty_word():
    assert candidates(builtin_rules(), word(""), ALL_CLASSES) == []


def _ends_with(w, suffix):
    """Whether the last letters of *w* are those of *suffix*."""
    return w.graphemes[len(w) - len(suffix):] == suffix.graphemes


def _oracle_candidates(rs, w, allowed):
    """Every applicable rule by brute force, in match order.  A merging
    replacement counts one letter fewer: its first joins a kept letter,
    as a mark or joiner does, and as NFC joins ᆨ to a kept 가."""
    return [
        r
        for r in sorted(rs.rules, key=lambda r: (-len(r.pattern), r.order))
        if r.klass in allowed
        and _ends_with(w, r.pattern)
        and len(w) - len(r.pattern) + len(r.replacement)
        - _oracle_merges(r.replacement.text) >= r.min_stem
    ]


def _oracle_merges(replacement):
    first = replacement[:1]
    return first == "\u11a8" or (first != "" and _joins_previous(first))


def _oracle_apply(w, rule):
    kept = "".join(w.graphemes[: len(w) - len(rule.pattern)])
    return segment(normalize(kept + rule.replacement.text))


def _oracle_walk(rs, w, allowed, chain, max_steps=None):
    """The stem and (rule, before, after) steps of a walk over the oracles."""
    steps = []
    while max_steps is None or len(steps) < max_steps:
        found = _oracle_candidates(rs, w, allowed)
        if not found:
            break
        after = _oracle_apply(w, found[0])
        steps.append((found[0], w, after))
        w = after
        if chain:
            if not found[0].next_classes:
                break
            allowed = found[0].next_classes
    return w, steps


# Three of the last four are outside `word`'s fast range: a mark it
# does not handle, a non-NFC spelling (ெ + ா is ொ) and Hangul.  The
# zero-width joiner is inside it, a letter of its own after ள்.
_SAMPLE_WORDS = ("படித்தேன்", "மரங்கள்", "பெண்கள்உக்கு", "ஓடுக்கும்",
                 "மரத்இல்", "படி", "hello", "மரம்ஏ", "cafe\u0301s",
                 "மரங்கெ\u0bbeள்", "மரங்கள்\u200dஉக்கு", "z가xy")


def test_candidates_matches_linear_scan():
    rs = builtin_rules()
    for text in _SAMPLE_WORDS:
        w = word(text)
        assert candidates(rs, w, ALL_CLASSES) == _oracle_candidates(
            rs, w, ALL_CLASSES
        )


def test_a_directly_built_or_replaced_ruleset_indexes_its_own_rules():
    builtin = builtin_rules()
    direct = RuleSet(builtin.rules)
    fewer = dataclasses.replace(builtin, rules=builtin.rules[:5])
    for text in _SAMPLE_WORDS:
        assert light_stem(text, direct) == light_stem(text, builtin)
        assert strip_stem(text, direct) == strip_stem(text, builtin)
        w = word(text)
        assert candidates(fewer, w, ALL_CLASSES) == _oracle_candidates(
            fewer, w, ALL_CLASSES
        )


@pytest.mark.parametrize(
    "line",
    [
        "Case\t\t\t1\t",
        "Case\tாக\t\t1\t",
        "Case\tகள்\tகள்\t1\t",
        "Case\tக\tகக\t1\tCase",
        "Case\tகள்\t\t0\t",
    ],
    ids=["empty", "sign", "same-length", "longer", "min_stem-0"],
)
def test_a_directly_built_ruleset_refuses_what_parse_rules_does(line):
    klass, pattern, replacement, min_stem, _ = line.split("\t")
    rule = SuffixRule(
        SuffixClass(klass), word(pattern), word(replacement), int(min_stem),
        frozenset({SuffixClass.CASE}), 0,
    )
    with pytest.raises(RuleError) as parsed:
        parse_rules(line + "\n")
    defect = str(parsed.value).removeprefix("line 1: ")
    with pytest.raises(RuleError) as built:
        RuleSet((rule,))
    assert str(built.value) == f"rule 0: {defect}"
    with pytest.raises(RuleError):
        dataclasses.replace(builtin_rules(), rules=(rule,))


def test_a_directly_built_ruleset_refuses_a_duplicate_class_and_pattern():
    # With another min_stem the second rule could fire where the first
    # does not: a set no rule file can state, since parse_rules refuses it.
    rule = SuffixRule(SuffixClass.CASE, word("கள்"), word(""), 2, frozenset(), 0)
    again = dataclasses.replace(rule, min_stem=1, order=1)
    with pytest.raises(RuleConflictError):
        parse_rules("Case\tகள்\t\t2\t\nCase\tகள்\t\t1\t\n")
    with pytest.raises(RuleError) as built:
        RuleSet((rule, again))
    assert str(built.value) == (
        "duplicate rule for class Case pattern 'கள்': rules 0 and 1"
    )
    builtin = builtin_rules()
    with pytest.raises(RuleError, match=f"rules 0 and {len(builtin)}$"):
        dataclasses.replace(builtin, rules=builtin.rules + (builtin.rules[0],))
    # The same pattern in another class is no conflict.
    plural = dataclasses.replace(again, klass=SuffixClass.PLURAL)
    assert len(RuleSet((rule, plural))) == 2


def test_repr_is_the_same_under_every_hash_seed():
    code = (
        "import tamilstem as ts; print(repr(ts.builtin_rules())); "
        "print(repr(ts.light_stem('மரங்கள்உக்கு')))"
    )
    outputs = set()
    for seed in ("1", "2"):
        env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONIOENCODING="utf-8")
        env["PYTHONPATH"] = os.path.dirname(os.path.dirname(tamilstem.__file__))
        proc = subprocess.run(
            [sys.executable, "-c", code],
            capture_output=True,
            timeout=60,
            env=env,
        )
        assert proc.returncode == 0, proc.stderr
        outputs.add(proc.stdout)
    assert len(outputs) == 1


def test_apply_rule_strips_and_replaces():
    find = _rules_by_key(builtin_rules()).get
    plural = find((SuffixClass.PLURAL, "ங்கள்"))
    assert apply_rule(word("மரங்கள்"), plural).text == "மரம்"
    bare = find((SuffixClass.PLURAL, "கள்"))
    assert apply_rule(word("பெண்கள்"), bare).text == "பெண்"


def test_apply_rule_resegments_result():
    rs = parse_rules("Case\tடியை\tடி\t1\t\n")
    out = apply_rule(word("படியை"), rs.rules[0])
    assert out.graphemes == ("ப", "டி")


def test_merging_replacement_is_normalized():
    # ெ before the pattern and the replacement ா compose to ொ: the stem
    # is NFC, as every GraphemeWord's text is.
    rs = parse_rules("Case\tலம்\tா\t1\t\n")
    assert apply_rule(word("கெலம்"), rs.rules[0]) == word("கொ")
    for engine in (light_stem, strip_stem):
        assert engine("கெலம்", rs).stem == word("கொ")


def test_a_merging_replacement_keeps_min_stem_letters():
    # கெ and ா merge into the one letter கொ, so the rule would leave one
    # letter of கெலம் where two are asked for.
    rs = parse_rules("Case\tலம்\tா\t2\t\n")
    for engine in (light_stem, strip_stem):
        assert engine("கெலம்", rs).stem.text == "கெலம்"
        assert engine("அகெலம்", rs).stem.text == "அகொ"
    # The count depends on the replacement's first character only: it
    # is one letter fewer even where that character stays a letter of
    # its own (after an independent vowel, or as a non-Tamil mark), so
    # there the rule asks one letter more than min_stem.
    rs = parse_rules("Case\tகக\tா\t2\t\n")
    for engine in (light_stem, strip_stem):
        assert engine("அகக", rs).stem.text == "அகக"
        assert engine("பஅகக", rs).stem.text == "பஅா"
    rs = parse_rules("Case\tகக\t\u0301\t1\t\n")
    for engine in (light_stem, strip_stem):
        assert engine("கக", rs).stem.text == "கக"


# The Hangul trailing consonant U+11A8 is a letter of its own, not a
# combining mark, yet NFC composes it with the syllable 가 before it
# into 각, which the second rule strips.
_NFC_JOINING_RULES = "Case\txy\t\u11a8\t1\tCase\nCase\t각\t\t1\t\n"


def test_a_replacement_that_nfc_joins_the_kept_text_keeps_the_stem_nfc(
    tmp_path,
):
    rs = parse_rules(_NFC_JOINING_RULES)
    assert apply_rule(word("가xy"), rs.rules[0]) == word("각")
    for engine in (light_stem, strip_stem):
        result = engine("z가xy", rs)
        assert result.stem.text == "z"
        assert [step.rule for step in result.trace] == list(rs.rules)
        for step in result.trace:
            assert step.after == word(step.after.text)
    # `min_stem` counts ᆨ as joining a kept letter, so the rule keeps
    # two letters before its pattern where two must remain.
    strict = parse_rules(_NFC_JOINING_RULES.replace("\t1\tCase", "\t2\t"))
    for engine in (light_stem, strip_stem):
        assert engine("가xy", strict).stem == word("가xy")
    assert light_stem("z가xy", strict).stem == word("z각")
    path = tmp_path / "rules.tsv"
    path.write_text(_NFC_JOINING_RULES, encoding="utf-8")
    for trace in ([], ["--trace"]):
        out = io.StringIO()
        argv = ["stem", "--rules", str(path), *trace]
        assert main(argv, io.StringIO("z가xy\n"), out, io.StringIO()) == EX_OK
        lines = out.getvalue().splitlines(keepends=True)
        assert [line for line in lines if line[0] != "#"] == ["z가xy\tz\n"]
        assert len(lines) == (3 if trace else 1)


def test_merges_counts_the_letters_that_may_join_the_kept_text():
    for replacement, joined in (
        ("", 0), ("க", 0), ("ம்", 0), ("ா", 1), ("்", 1), ("\u0301", 1),
        ("\u200d", 1), ("x\u0301", 0), ("나", 0), ("\u11a8", 1),
        ("\u1161", 1), ("\u1161\u11a8", 2), ("\u11a8\u11a8", 1),
    ):
        assert _merges(replacement) == joined, replacement
    # A vowel and a final jamo both join a kept initial ᄀ: 각 is one
    # letter, so the rule keeps two before its pattern.
    rs = parse_rules("Case\txyz\t\u1161\u11a8\t2\t\n")
    for engine in (light_stem, strip_stem):
        assert engine("\u1100xyz", rs).stem.text == "\u1100xyz"
        assert engine("z\u1100xyz", rs).stem.text == "z각"


def test_rule_application_strictly_shortens():
    for rule in builtin_rules().rules:
        assert len(rule.replacement) < len(rule.pattern)


@pytest.mark.parametrize("pattern", ["ா", "ாம்", "்", "ிய", "ௗ"])
def test_pattern_starting_with_a_dependent_sign_is_rejected(pattern):
    text = f"# header\nCase\t{pattern}\t\t1\t\n"
    with pytest.raises(RuleError, match="vowel sign or pulli") as exc:
        parse_rules(text)
    assert exc.value.line == 2
    assert _problems(text) == [str(exc.value)]


@pytest.mark.parametrize(
    "pattern",
    ["\u0301க", "\u200dக", "\u0b82க"],
    ids=["acute", "zero-width-joiner", "anusvara"],
)
def test_pattern_starting_with_a_joining_mark_is_rejected(tmp_path, pattern):
    # Its text ends x + pattern, whose letters it does not end: the mark
    # joins x there, but starts a letter of its own in the pattern.
    assert not _ends_with(word("x" + pattern), word(pattern))
    message = (
        f"line 2: pattern {pattern!r} starts with a combining mark or "
        "joiner, which joins the letter before it"
    )
    text = f"# header\nCase\t{pattern}\t\t1\t\n"
    with pytest.raises(RuleError) as exc:
        parse_rules(text)
    assert (exc.value.line, str(exc.value)) == (2, message)
    assert _problems(text) == [message]
    path = tmp_path / "rules.tsv"
    path.write_text(text, encoding="utf-8")
    out, err = io.StringIO(), io.StringIO()
    code = main(["rules-validate", str(path)], io.StringIO(), out, err)
    assert (code, out.getvalue(), err.getvalue()) == (65, message + "\n", "")
    rule = SuffixRule(
        SuffixClass.CASE, word(pattern), word(""), 1, frozenset(), 0
    )
    with pytest.raises(RuleError) as built:
        RuleSet((rule,))
    assert str(built.value) == message.replace("line 2", "rule 0")


def test_replacement_may_start_with_a_dependent_sign():
    (rule,) = parse_rules("Case\tடியை\tி\t1\t\n").rules
    assert rule.replacement.text == "ி"


def test_a_lone_surrogate_is_reported_on_its_line():
    """The residue of a failed decode is a defect of its line, like a
    malformed gold line, not a bare ValueError."""
    message = "line 2: malformed text: lone surrogate at offset 0"
    text = "Case\tஐ\t\t2\t\nCase\t\udcff\t\t2\t\n"
    assert _problems(text) == [message]
    with pytest.raises(RuleError) as exc:
        parse_rules(text)
    assert (exc.value.line, str(exc.value)) == (2, message)
    with pytest.raises(ValueError) as exc:
        load_roots("படி\tverb\n\udcffக\tnoun\n")
    assert str(exc.value) == message


@pytest.mark.parametrize(
    "read,data_line,error",
    [
        (load_gold, "a\tb", GoldError),
        (load_roots, "படி\tverb", ValueError),
        (parse_rules, "Case\tஐ\t\t1\t", RuleError),
    ],
    ids=["gold", "roots", "rules"],
)
def test_a_lone_surrogate_in_a_comment_is_reported_on_its_line(
    read, data_line, error
):
    with pytest.raises(error) as exc:
        read(f"{data_line}\n# \udcff\n{data_line}\n")
    message = "line 2: malformed text: lone surrogate at offset 2"
    assert str(exc.value) == message
    assert getattr(exc.value, "line", 2) == 2


# Per rule field: values that parse, then values that do not.  Valid
# values are repeated so that whole valid lines, and so duplicate
# (class, pattern) pairs, come up often.
_FIELDS = (
    (["Plural", "Case", " Tense "], ["Misc", ""]),
    (["கள்", "ஐ", "ங்கள்", "s"], ["ா", "்", ""]),
    (["", "", "ம்"], ["ங்கள்ஐ"]),
    (["1", "2", " 3"], ["0", "x"]),
    (["", "Case", "Case,Plural"], ["Nope", "Case,,Plural"]),
)
# Every character that str.splitlines breaks a line at, except "\n",
# which alone ends a line in a rule file.
LINE_BREAKS = (
    "\r", "\v", "\f", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029",
)
# Noise: the line breaks, field and comment syntax, Tamil consonants,
# vowel signs and pulli, a combining mark, a letter outside the BMP and
# a lone surrogate, the residue of a failed decode.  A fixed alphabet,
# unlike st.text(), needs no Unicode table built on a fresh checkout,
# which took about 3 s and failed Hypothesis's health check.
ALPHABET = LINE_BREAKS + (
    "\t", "#", " ", "க", "ம", "ள", "ா", "ி", "்", "\u0301", "\U0001d400",
    "\udcff",
)
_tabbed_line = st.tuples(
    *(st.sampled_from(good * 4 + bad) for good, bad in _FIELDS)
).map("\t".join)
_other_line = st.one_of(
    st.lists(st.sampled_from(["Case", "ஐ", "", "2"]), max_size=7).map(
        "\t".join
    ),
    st.sampled_from(["", "# comment", "   ", "\t#x"]),
    st.lists(st.sampled_from(ALPHABET), max_size=12).map("".join),
)
# One line in six is a blank, a comment, a wrong field count or noise.
_rule_line = st.integers(0, 5).flatmap(
    lambda k: _other_line if k == 0 else _tabbed_line
)


@settings(max_examples=400, derandomize=True)
@given(st.lists(_rule_line, max_size=8), st.sampled_from(["\n", "\r\n"]))
def test_parse_rules_raises_the_first_problem_rules_validate_reports(
    lines, newline
):
    text = newline.join(lines)
    problems = _problems(text)
    try:
        ruleset = parse_rules(text)
    except RuleError as exc:
        assert problems and str(exc) == problems[0]
        if isinstance(exc, RuleConflictError):
            assert exc.line == exc.second_line > exc.first_line
            assert f"lines {exc.first_line} and {exc.second_line}" in str(exc)
            rows = text.split("\n")
            (first,) = parse_rules(rows[exc.first_line - 1]).rules
            (second,) = parse_rules(rows[exc.second_line - 1]).rules
            assert (first.klass, first.pattern) == (
                second.klass,
                second.pattern,
            )
    else:
        assert problems == []
        assert [r.order for r in ruleset.rules] == list(range(len(ruleset)))


@pytest.mark.parametrize("place", ["comment", "field"])
@pytest.mark.parametrize("char", LINE_BREAKS, ids=[hex(ord(c)) for c in LINE_BREAKS])
def test_only_a_newline_ends_a_line(tmp_path, char, place):
    """Rule, gold and root files, and the CLI, number the lines of
    ``text.split("\\n")``: *char* sits in line 1, in a comment or a field,
    and the defect the readers report is on line 2 (or lines 2 and 3)."""

    def text(data_line, *rest):
        first = f"# x{char}y" if place == "comment" else data_line
        return "\n".join((first, *rest)) + "\n"

    def run(argv, stdin=""):
        stdout, stderr = io.StringIO(), io.StringIO()
        code = main(argv, io.StringIO(stdin), stdout, stderr)
        return code, stdout.getvalue(), stderr.getvalue()

    rules = text(f"Case\tக{char}\t\t1\t", "Case\tஐ\t\t1\t", "Case\tஐ\t\t1\t")
    conflict = "duplicate rule for class Case pattern 'ஐ': lines 2 and 3"
    assert _problems(rules) == [conflict]
    with pytest.raises(RuleConflictError) as exc:
        parse_rules(rules)
    assert (exc.value.first_line, exc.value.second_line) == (2, 3)
    path = tmp_path / "rules.tsv"
    path.write_bytes(rules.encode())
    assert run(["rules-validate", str(path)]) == (
        EX_RULE_CONFLICT, conflict + "\n", ""
    )
    with pytest.raises(GoldError) as exc:
        load_gold(text(f"அ{char}ம\tஅ", "x"))
    assert exc.value.line == 2
    with pytest.raises(ValueError, match="^line 2: expected 2 "):
        load_roots(text(f"ப{char}டி\tverb", "x"))

    roots = text(f"ப{char}டி", "படி")
    code, pairs, err = run(["generate", "--paradigm", "verb"], roots)
    assert (code, err) == (EX_OK, "")
    code, report, err = run(["eval"], pairs)
    assert (code, err) == (EX_OK, "")
    assert report.endswith("accuracy\t100.0\n")


# Small alphabets make rules share patterns and final letters.  Each
# letter starts with a base character, as a pattern must; replacements
# may start with a vowel sign, pulli, AU length mark, combining mark or
# zero-width joiner, which join the letter before them.
# கெ composes with a replacement ா or ௗ into one letter, கொ or கௌ.
# x + acute holds a mark outside the text walk's range, so the text walk
# hands over to the letter walk where it applies.  가, é (typed as e +
# acute) and the Hangul trailing consonant ᆨ are outside that range
# too, and NFC composes 가 and ᆨ into the one letter 각.
_LETTERS = ("க", "கு", "கெ", "ம்", "ள்", "ஐ", "டி", "a", "가", "e\u0301")
_REPLACEMENTS = (
    "", "", "ம்", "க", "ி", "்", "ா", "ௗ", "\u0301", "\u200d", "x\u0301",
    "\u11a8",
)
# Class sets for walks of one step: a first mask, then 0.
_ONE_STEP_CLASSES = (
    {SuffixClass.PLURAL},
    {SuffixClass.ADJECTIVAL_PARTICIPLE},
    {
        SuffixClass.TENSE,
        SuffixClass.NEGATIVE_COMPOUND,
        SuffixClass.PERSON_NUMBER_GENDER,
    },
)
# The class masks of both engines' walks, and of one-step walks.
_MASKS = (
    _STRIP, _LIGHT, *((_class_mask(c), 0) for c in _ONE_STEP_CLASSES)
)
_CLASSES = ("Plural", "Case", "Tense")
_index_rule = st.tuples(
    st.sampled_from(_CLASSES),
    st.lists(st.sampled_from(_LETTERS), min_size=1, max_size=3).map("".join),
    st.sampled_from(_REPLACEMENTS),
    st.sampled_from([1, 1, 2, 3]),
    st.sets(st.sampled_from(_CLASSES)).map(lambda c: ",".join(sorted(c))),
)


def _assert_same_result(got, expected):
    """*got* equals *expected* field by field: the word, the stem and
    each step's rule, before and after, each word by its letters and its
    text."""
    assert len(got.trace) == len(expected.trace)
    # Each step starts from the word the last one made, the same object.
    afters = [got.word, *(step.after for step in got.trace)]
    befores = [*(step.before for step in got.trace), got.stem]
    assert all(a is b for a, b in zip(afters, befores))
    words = [(got.word, expected.word), (got.stem, expected.stem)]
    for step, want in zip(got.trace, expected.trace):
        assert step.rule == want.rule
        words += [(step.before, want.before), (step.after, want.after)]
    for w, want in words:
        assert (w.graphemes, w.text) == (want.graphemes, want.text)
    assert got == expected


@settings(max_examples=300, derandomize=True)
@given(
    st.lists(_index_rule, max_size=10, unique_by=lambda r: r[:2]),
    st.data(),
)
def test_suffix_index_agrees_with_brute_force(specs, data):
    lines = [
        # A one-letter pattern can only take an empty replacement.
        f"{klass}\t{pattern}\t{rep if len(segment(pattern)) > 1 else ''}"
        f"\t{min_stem}\t{nxt}"
        for klass, pattern, rep, min_stem, nxt in specs
    ]
    rs = parse_rules("\n".join(lines) + "\n")
    patterns = [r.pattern.text for r in rs.rules] or ["க"]
    letters = st.lists(st.sampled_from(_LETTERS), max_size=5).map("".join)
    texts = data.draw(
        st.lists(
            st.one_of(
                letters,
                st.sampled_from(patterns),
                st.tuples(letters, st.sampled_from(patterns)).map("".join),
            ),
            min_size=1,
            max_size=6,
        )
    )
    allowed = data.draw(st.sets(st.sampled_from(list(SuffixClass))))
    for w in map(word, texts):
        for classes in (ALL_CLASSES, allowed):
            found = candidates(rs, w, classes)
            assert found == _oracle_candidates(rs, w, classes)
            for rule in found:
                assert apply_rule(w, rule) == _oracle_apply(w, rule)
        for engine, chain in ((light_stem, True), (strip_stem, False)):
            result = engine(w, rs)
            for step in result.trace:
                assert len(step.after) >= step.rule.min_stem
            steps = [(s.rule, s.before, s.after) for s in result.trace]
            assert (result.stem, steps) == _oracle_walk(
                rs, w, ALL_CLASSES, chain
            )
            _assert_same_result(engine(w.text, rs), result)
        assert _both(rs, w.text) == (
            strip_stem(w, rs).stem.text, light_stem(w, rs).stem.text
        )
        for masks in _MASKS:
            steps, letters = [], []
            assert _walk_text(rs, w.text, masks, steps) == _walk(
                rs, w, masks, letters
            ).text
            assert steps == [(s.rule, s.after.text) for s in letters]
        for classes in _ONE_STEP_CLASSES:
            stem, _ = _oracle_walk(rs, w, classes, chain=False, max_steps=1)
            assert _walk(rs, w, (_class_mask(classes), 0)) == stem


# Rule sets for the text walk besides the built-in one: no rules,
# patterns of one and two code points, Latin patterns, a merging
# replacement (`லம்` gives way to the vowel sign `ா`), where the text
# walk hands over to the letter walk, and rules that keep three or four
# letters, which the text walk counts by splitting with `_LETTER`.
_TEXT_WALK_RULES = (
    "",
    "Case\tஐ\t\t1\t\nVocative\tஏ\t\t1\t\nPlural\tள்\t\t1\t\n",
    "Case\tஉக்கு\t\t1\tPlural\nPlural\tங்கள்\tம்\t1\t\n"
    "Case\ting\t\t1\tPlural\nPlural\ts\t\t1\t\n",
    "Case\tலம்\tா\t2\tPlural\nCase\tஉக்கு\t\t1\tPlural\n"
    "Plural\tங்கள்\tம்\t1\t\n",
    "Case\ta\t\t3\tPlural\nPlural\tb\t\t3\tCase\nCase\tg\t\t3\tPlural\n"
    "Plural\ti\t\t3\tCase\nCase\tஉக்கு\t\t3\tPlural\n"
    "Plural\tகள்\t\t3\tVocative\nVocative\tஏ\t\t3\t\n",
    "Case\tn\t\t4\tPlural\nPlural\ts\t\t4\tCase\nCase\tz\t\t4\tPlural\n"
    "Case\tஐ\t\t4\tPlural\nPlural\tங்கள்\tம்\t4\tCase\n",
)
# Text the walks must handle: any Tamil-block code point, the zero-width
# joiners, the four code point pairs NFC joins in the Tamil block, Latin
# letters, pattern texts, so that some tokens end in a pattern, and lone
# surrogates (the residue of an undecodable byte).
_LONE_SURROGATES = st.integers(0xD800, 0xDFFF).map(chr)
_piece = st.one_of(
    st.integers(0x0B80, 0x0BFF).map(chr),
    st.sampled_from(
        ["\u200c", "\u200d", "\u0b92\u0bd7", "\u0bc6\u0bbe", "\u0bc6\u0bd7",
         "\u0bc7\u0bbe"]
    ),
    st.sampled_from("abginsz"),
    st.sampled_from(
        sorted({r.pattern.text for r in builtin_rules().rules} | {"லம்"})
    ),
)


@settings(max_examples=300, derandomize=True)
@given(
    st.sampled_from([None, *_TEXT_WALK_RULES]),
    st.lists(_piece, max_size=6).map("".join),
    st.data(),
)
def test_no_match_check_is_sound(rules_text, text, data):
    """The text walk, whose first probe is ``stem``'s "no rule matches"
    check wherever `_NOT_FAST_NFC` finds nothing, gives the letter walk's
    stem under every pair of class masks, also where the text ends in
    one of the rule set's own patterns."""
    rs = builtin_rules() if rules_text is None else parse_rules(rules_text)
    patterns = [rule.pattern.text for rule in rs.rules]
    tail = data.draw(st.sampled_from(patterns)) if patterns else ""
    for masks in _MASKS:
        for token in (text, text + tail):
            assert _walk_text(rs, token, masks) == _walk(rs, token, masks).text


def _letters_read(w):
    """Whether *w* holds its letters: a word walked as text gets them on
    first read, and only then is its type `GraphemeWord`."""
    return type(w) is GraphemeWord


# Text outside the text walk's range besides `_piece`'s NFD Tamil pairs:
# Latin with combining marks, and Hangul, as syllables and as jamo NFC
# composes.
_other_piece = st.sampled_from(
    ["e\u0301", "a\u0308\u0323", "가", "각", "\u1100\u1161",
     "\u1100\u1161\u11a8"]
)


@settings(max_examples=500, derandomize=True)
@given(st.lists(st.one_of(_piece, _other_piece), max_size=6).map("".join))
def test_the_engines_give_a_str_the_result_of_its_word(text):
    """Under the built-in rules, both engines give a `str` the result
    they give its `word`.  Where `_NOT_FAST_NFC` finds nothing, the
    text is walked as text, the result's trace is built when first
    read, and no word of the result has split its letters yet; each
    splits them as `segment` of `normalize` does.  Each step's *after*
    is the next step's *before*, the same object, so no text's letters
    are split twice."""
    rs = builtin_rules()
    fast = _NOT_FAST_NFC.search(text) is None
    for engine in (light_stem, strip_stem):
        result, expected = engine(text, rs), engine(word(text), rs)
        # A fast result with steps builds them on the first read.
        assert (type(result) is StemResult) == (not fast or not expected.trace)
        words = [result.word, *(step.after for step in result.trace)]
        befores = [*(step.before for step in result.trace), result.stem]
        assert all(w is before for w, before in zip(words, befores))
        assert [_letters_read(w) for w in words] == [not fast] * len(words)
        _assert_same_result(result, expected)
        for w in words:
            assert w.graphemes == segment(normalize(w.text)).graphemes
            assert type(w) is GraphemeWord


@settings(max_examples=100, derandomize=True)
@given(
    st.sampled_from([None, *_TEXT_WALK_RULES]),
    st.tuples(
        st.lists(_piece, max_size=3).map("".join),
        _LONE_SURROGATES,
        st.lists(_piece, max_size=3).map("".join),
    ).map("".join),
)
def test_no_match_check_passes_no_lone_surrogate(
    tmp_path_factory, rules_text, text
):
    """A token with a lone surrogate is outside the text walk's range:
    ``stem`` walks its letters, which fails, and exits 65 naming its
    line."""
    assert _NOT_FAST_NFC.search(text) is not None
    argv = ["stem"]
    if rules_text is not None:
        path = tmp_path_factory.mktemp("rules") / "rules.tsv"
        path.write_text(rules_text, encoding="utf-8")
        argv += ["--rules", str(path)]
    out, err = io.StringIO(), io.StringIO()
    code = main(argv, io.StringIO(f"மரம்\n{text}\n"), out, err)
    assert code == 65
    assert out.getvalue() == "மரம்\tமரம்\n"
    assert err.getvalue().startswith("tamilstem: error: <stdin>: line 2: ")


def test_the_text_walk_keeps_whole_letters(tmp_path):
    # கா is one letter, so ஏ would leave one of the two asked for.  A
    # count that backtracks into the letter would read it as க and ா.
    text = "Vocative\tஏ\t\t2\t\n"
    rs = parse_rules(text)
    for masks in (_STRIP, _LIGHT):
        assert _walk_text(rs, "காஏ", masks) == "காஏ"
        assert _walk_text(rs, "அகாஏ", masks) == "அகா"
    path = tmp_path / "rules.tsv"
    path.write_text(text, encoding="utf-8")
    out = io.StringIO()
    stdin = io.StringIO("காஏ\nஅகாஏ\n")
    assert main(["stem", "--rules", str(path)], stdin, out, io.StringIO()) == EX_OK
    assert out.getvalue() == "காஏ\tகாஏ\nஅகாஏ\tஅகா\n"


# Text `_NOT_FAST_NFC` finds nothing in: Tamil-block code points, on
# their own too (a stray sign), a sign after an independent vowel, the
# anusvara U+0B82 or a zero-width joiner after a consonant, a consonant
# with two signs, and ASCII.
_fast_text = (
    st.lists(
        st.one_of(
            st.integers(0x0B80, 0x0BFF).map(chr),
            st.sampled_from(
                ["அ\u0bbe", "ஔ\u0bd7", "க\u0b82", "க\u200d", "க\u200c",
                 "\u200d", "கி\u0bcd", "க\u0bcd\u0bcd", "ஸ்ரீ"]
            ),
            st.characters(min_codepoint=0x20, max_codepoint=0x7E),
        ),
        min_size=1,
        max_size=6,
    )
    .map("".join)
    .filter(lambda text: _NOT_FAST_NFC.search(text) is None)
)


@settings(max_examples=500, derandomize=True)
@given(_fast_text)
def test_two_letters_are_read_from_two_code_points(text):
    """Where ``text[1]``, or ``text[2]`` before the pattern, is outside
    `_JOINS`, `segment` finds two letters before it.  For rules that
    keep 2, 3 and 4 letters, `_first_text_match` agrees with `segment`
    at every end.  It splits with `_LETTER` only where at least that
    many code points come before the pattern and, for two letters,
    neither of those code points settles the count."""
    assert _DEPENDENT_SIGNS <= _JOINS
    # Each keeps *need* letters before z.
    rule_sets = {
        need: parse_rules(f"Case\tz\t\t{need}\t\n") for need in (2, 3, 4)
    }
    for end in range(2, len(text) + 1):
        n_letters = len(segment(text[:end]))
        shortcut = text[1] not in _JOINS or (end > 2 and text[2] not in _JOINS)
        assert n_letters >= 2 or not shortcut
        for need, rs in rule_sets.items():
            with mock.patch.object(
                rules_module, "_LETTER", wraps=_LETTER
            ) as letters:
                found = _first_text_match(rs, text[:end] + "z", _ALL)
            assert (found is not None) == (n_letters >= need)
            counted = need <= end and not (need == 2 and shortcut)
            assert letters.findall.call_count == counted


def test_the_text_walk_probes_no_pattern_longer_than_the_word():
    # ககடம ends in the same two code points as the word கடம, and the
    # slice of its length is the whole word.  Read there, the second
    # கடம rule, which keeps -1 letters, would pass where the first,
    # which keeps 0, does not, and would be taken first.
    rs = parse_rules(
        "Case\tகடம\tக\t1\t\nPlural\tகடம\tகக\t1\t\nTense\tககடம\t\t1\t\n"
    )
    for masks in (_STRIP, _LIGHT):
        assert _walk(rs, "கடம", masks).text == "க"
        assert _walk_text(rs, "கடம", masks) == "க"
