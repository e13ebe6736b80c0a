"""Rule file parsing, validation, and matching."""

import pytest
from hypothesis import given, settings, strategies as st

from tamilstem.graphemes import word
from tamilstem.rules import (
    ALL_CLASSES,
    RuleConflictError,
    RuleError,
    SuffixClass,
    apply_rule,
    builtin_rules,
    candidates,
    parse_rules,
    render_rules,
    validate_rules,
)

GOOD_LINE = "Plural\tகள்\t\t2\tCase,Vocative\n"


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
        ("Plural\tகள்\tகள்\t2\t", "not shorter"),
        ("Plural\tகள்\tங்கள்\t2\t", "not shorter"),
        ("Plural\tகள்\t\tx\t", "not an integer"),
        ("Plural\tகள்\t\t0\t", ">= 1"),
        ("Plural\tகள்\t\t2\tNope", "unknown next class"),
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
    problems = validate_rules(text)
    assert len(problems) == 3
    assert any("line 2" in p for p in problems)
    assert any("line 3" in p for p in problems)
    assert any("duplicate rule" in p and "lines 1 and 4" in p for p in problems)


def test_validate_clean_file():
    assert validate_rules(GOOD_LINE) == []


def test_render_parse_round_trip():
    rs = builtin_rules()
    assert parse_rules(render_rules(rs)) == rs


def test_render_empty():
    assert render_rules(parse_rules("")) == ""


def test_builtin_contents():
    rs = builtin_rules()
    assert len(rs) >= 80
    assert rs.find(SuffixClass.CASE, "உக்கு") is not None
    neg = rs.find(SuffixClass.NEGATIVE_COMPOUND, "க்கமாட்டேன்")
    assert neg is not None
    plural = rs.find(SuffixClass.PLURAL, "ங்கள்")
    assert plural is not None
    assert plural.replacement.text == "ம்"
    participle = rs.find(SuffixClass.ADJECTIVAL_PARTICIPLE, "டிய")
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


def test_candidates_matches_linear_scan():
    rs = builtin_rules()
    words = ["படித்தேன்", "மரங்கள்", "பெண்கள்உக்கு", "ஓடுக்கும்",
             "மரத்இல்", "படி", "hello", "மரம்ஏ"]
    for text in words:
        w = word(text)
        brute = [
            r
            for r in sorted(rs.rules, key=lambda r: (-len(r.pattern), r.order))
            if w.graphemes[-len(r.pattern):] == r.pattern.graphemes
            and len(w) - len(r.pattern) + len(r.replacement) >= r.min_stem
        ]
        assert candidates(rs, w, ALL_CLASSES) == brute


def test_apply_rule_strips_and_replaces():
    rs = builtin_rules()
    plural = rs.find(SuffixClass.PLURAL, "ங்கள்")
    assert apply_rule(word("மரங்கள்"), plural).text == "மரம்"
    bare = rs.find(SuffixClass.PLURAL, "கள்")
    assert apply_rule(word("பெண்கள்"), bare).text == "பெண்"


def test_apply_rule_resegments_result():
    rs = parse_rules("Case\tடியை\tடி\t1\t\n")
    out = apply_rule(word("படியை"), rs.rules[0])
    assert out.graphemes == ("ப", "டி")


def test_rule_application_strictly_shortens():
    for rule in builtin_rules().rules:
        assert len(rule.replacement) < len(rule.pattern)


@pytest.mark.parametrize("pattern", ["ா", "ாம்", "்", "ிய", "ௗ"])
def test_pattern_starting_with_a_dependent_sign_is_rejected(pattern):
    text = f"# header\nCase\t{pattern}\t\t1\t\n"
    with pytest.raises(RuleError, match="vowel sign or pulli") as exc:
        parse_rules(text)
    assert exc.value.line == 2
    assert validate_rules(text) == [str(exc.value)]


def test_replacement_may_start_with_a_dependent_sign():
    (rule,) = parse_rules("Case\tடியை\tி\t1\t\n").rules
    assert rule.replacement.text == "ி"


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
_tabbed_line = st.tuples(
    *(st.sampled_from(good * 4 + bad) for good, bad in _FIELDS)
).map("\t".join)
_other_line = st.one_of(
    st.lists(st.sampled_from(["Case", "ஐ", "", "2"]), max_size=7).map(
        "\t".join
    ),
    st.sampled_from(["", "# comment", "   ", "\t#x"]),
    st.text(max_size=12),
)
# One line in six is a blank, a comment, a wrong field count or noise.
_rule_line = st.integers(0, 5).flatmap(
    lambda k: _other_line if k == 0 else _tabbed_line
)


@settings(max_examples=400, derandomize=True)
@given(st.lists(_rule_line, max_size=8), st.sampled_from(["\n", "\r\n"]))
def test_parse_rules_raises_the_first_problem_validate_rules_reports(
    lines, newline
):
    text = newline.join(lines)
    problems = validate_rules(text)
    try:
        ruleset = parse_rules(text)
    except RuleError as exc:
        assert problems and str(exc) == problems[0]
        if isinstance(exc, RuleConflictError):
            assert exc.line == exc.second_line > exc.first_line
            assert f"lines {exc.first_line} and {exc.second_line}" in str(exc)
            rows = text.splitlines()
            (first,) = parse_rules(rows[exc.first_line - 1]).rules
            (second,) = parse_rules(rows[exc.second_line - 1]).rules
            assert (first.klass, first.pattern) == (
                second.klass,
                second.pattern,
            )
    else:
        assert problems == []
        assert [r.order for r in ruleset.rules] == list(range(len(ruleset)))
