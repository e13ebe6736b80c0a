"""Both stemming engines."""

import copy
import dataclasses
import pickle
import random
import unicodedata

from fractions import Fraction

import pytest

from tamilstem.evaluation import EvalReport, EvalRow, GoldEntry
from tamilstem.graphemes import GraphemeWord, word
from tamilstem.paradigm import build_corpus
from tamilstem.rules import SuffixClass, SuffixRule, builtin_rules, parse_rules
from tamilstem.stemmers import (
    ENGINES,
    StemResult,
    StemStep,
    _both,
    light_stem,
    stem_batch,
    strip_stem,
)

STRIP_CASES = [
    ("படித்தேன்", "படி"),
    ("மரங்கள்உக்கு", "மரம்"),        # strips உக்கு, then rewrites ங்கள் to ம்
    ("பெண்கள்", "பெண்"),
    ("மரம்", "மரம்"),
    ("படி", "படி"),
]


def test_strip_examples():
    for surface, expected in STRIP_CASES:
        assert strip_stem(surface).stem.text == expected


def test_strip_bare_root_has_empty_trace():
    result = strip_stem("படி")
    assert result.stem.text == "படி"
    assert result.trace == ()


def test_strip_trace_replays_to_stem():
    result = strip_stem("மரங்கள்உக்கு")
    assert [step.rule.pattern.text for step in result.trace] == ["உக்கு", "ங்கள்"]
    w = result.word
    for step in result.trace:
        assert step.before == w
        assert len(step.after) < len(step.before)
        w = step.after
    assert w == result.stem


def test_strip_respects_min_stem():
    # Every rule keeps at least 2 letters, so 2-letter inputs never shrink.
    for text in ("படி", "ஓடு", "தம்", "ஏறு"):
        assert strip_stem(text).stem.text == text


def test_strip_longest_match_wins():
    # க்கும் (3 letters) must beat கும் (2 letters).
    result = strip_stem("ஓடுக்கும்")
    assert result.trace[0].rule.pattern.text == "க்கும்"
    assert result.stem.text == "ஓடு"


def test_stem_batch_matches_individual_calls():
    words = [s for s, _ in STRIP_CASES]
    batch = stem_batch(words)
    assert [r.stem.text for r in batch] == [
        strip_stem(w).stem.text for w in words
    ]
    assert stem_batch([]) == []


def test_stem_batch_shares_results_for_equal_inputs():
    rules = builtin_rules()
    texts = [s for s, _ in STRIP_CASES] + ["hello"]
    rng = random.Random(5)
    inputs = [rng.choice(texts) for _ in range(60)]
    inputs += [word(t) for t in rng.choices(texts, k=20)]
    for engine in (light_stem, strip_stem):
        batch = stem_batch(inputs, rules, engine)
        assert batch == [engine(w, rules) for w in inputs]
        first = {}
        for w, result in zip(inputs, batch):
            assert first.setdefault(w, result) is result


LIGHT_CASES = [
    ("பெண்கள்உக்கு", "பெண்"),       # Case then Plural
    ("படிக்கமாட்டேன்", "படி"),
    ("மரங்கள்ஏ", "மரம்"),            # Vocative, Case skipped, Plural
    ("படி", "படி"),
    ("மரம்", "மரம்"),
]


def test_light_examples():
    for surface, expected in LIGHT_CASES:
        assert light_stem(surface).stem.text == expected


def test_light_trace_respects_transitions():
    for surface, _ in LIGHT_CASES + STRIP_CASES:
        trace = light_stem(surface).trace
        for earlier, later in zip(trace, trace[1:]):
            assert later.rule.klass in earlier.rule.next_classes


def test_light_stops_at_terminal_class():
    # Plural is terminal: nothing may strip after it, even if a pattern
    # would match the remaining word.
    trace = light_stem("பெண்கள்உக்கு").trace
    assert [step.rule.klass for step in trace] == [
        SuffixClass.CASE,
        SuffixClass.PLURAL,
    ]


def test_light_keeps_at_least_two_letters():
    for surface, _ in LIGHT_CASES:
        result = light_stem(surface)
        assert len(result.stem) >= min(len(result.word), 2)


def test_non_tamil_passes_through():
    for text in ("hello", "123", "stemming"):
        assert strip_stem(text).stem.text == text
        assert light_stem(text).stem.text == text
        assert strip_stem(text).trace == ()


@pytest.mark.parametrize("text", ["hello", "படி", "மரம்x", ""])
def test_word_no_rule_matches_is_its_own_stem(text):
    rules = builtin_rules()
    for w in (text, word(text)):
        for engine in (strip_stem, light_stem):
            result = engine(w, rules)
            assert result.trace == ()
            assert result.stem is result.word
            assert result.stem.text == text
    strip, light = _both(rules, text)
    assert strip is light is text


def test_custom_rules_override_builtins():
    rules = parse_rules("Case\ts\t\t1\t\n")
    assert strip_stem("cats", rules).stem.text == "cat"
    assert light_stem("cats", rules).stem.text == "cat"
    # Built-ins are untouched by the custom set.
    assert strip_stem("cats").stem.text == "cats"


def test_light_round_trips_generated_corpus():
    rules = builtin_rules()
    for surface, root in build_corpus():
        assert light_stem(surface, rules).stem == root


def test_engines_registry():
    assert set(ENGINES) == {"strip", "light"}
    assert ENGINES["strip"] is strip_stem
    assert ENGINES["light"] is light_stem


def _random_tamil_words(count, seed):
    consonants = [
        chr(c)
        for c in range(0x0B95, 0x0BBA)
        if unicodedata.category(chr(c)) == "Lo"
    ]
    signs = [
        chr(c)
        for c in range(0x0BBE, 0x0BCE)
        if unicodedata.category(chr(c)) in ("Mn", "Mc")
    ]
    rng = random.Random(seed)
    words = []
    for _ in range(count):
        parts = []
        for _ in range(rng.randint(1, 8)):
            base = rng.choice(consonants)
            parts.append(
                base + rng.choice(signs) if rng.random() < 0.7 else base
            )
        words.append(word("".join(parts)))
    return words


def test_strip_idempotent_on_random_sample():
    rules = builtin_rules()
    for w in _random_tamil_words(500, seed=11):
        once = strip_stem(w, rules).stem
        assert strip_stem(once, rules).stem == once


def test_light_idempotent_on_paradigm_corpus():
    rules = builtin_rules()
    for surface, _ in build_corpus():
        once = light_stem(surface, rules).stem
        assert light_stem(once, rules).stem == once


def _value_cases():
    """(class, field names, two equal instances, a third that differs)."""
    plural, tense = light_stem("மரங்கள்"), light_stem("படித்தேன்")
    tree, trees = word("மரம்"), word("மரங்கள்")
    step = plural.trace[0]
    rule, next_rule = builtin_rules().rules[:2]
    row = EvalRow(10, 8, 7, 6, Fraction(175, 2), Fraction(75))
    return [
        (GraphemeWord, ("graphemes", "text"),
         tree, GraphemeWord(("ம", "ர", "ம்"), "மரம்"), trees),
        (StemStep, ("rule", "before", "after"),
         step, StemStep(step.rule, trees, tree), tense.trace[0]),
        (StemResult, ("word", "stem", "trace"),
         plural, StemResult(trees, tree, (step,)), tense),
        (SuffixRule,
         ("klass", "pattern", "replacement", "min_stem", "next_classes",
          "order"),
         rule,
         SuffixRule(rule.klass, word(rule.pattern.text),
                    word(rule.replacement.text), rule.min_stem,
                    frozenset(rule.next_classes), rule.order),
         next_rule),
        (GoldEntry, ("surface", "expected_stem"),
         GoldEntry(trees, tree), GoldEntry(word("மரங்கள்"), word("மரம்")),
         GoldEntry(tree, tree)),
        (EvalRow,
         ("n_words", "n_unique", "n_correct_strip", "n_correct_light",
          "acc_strip", "acc_light"),
         row, EvalRow(10, 8, 7, 6, Fraction(350, 4), Fraction(75, 1)),
         EvalRow(20, 16, 15, 16, Fraction(375, 4), Fraction(100))),
        (EvalReport, ("rows", "avg_strip", "avg_light"),
         EvalReport((row,), row.acc_strip, row.acc_light),
         EvalReport((row,), Fraction(175, 2), Fraction(75)),
         EvalReport((), None, None)),
    ]


@pytest.mark.parametrize(
    "cls,names,one,same,other",
    _value_cases(),
    ids=["GraphemeWord", "StemStep", "StemResult", "SuffixRule", "GoldEntry",
         "EvalRow", "EvalReport"],
)
def test_value_classes_keep_frozen_dataclass_semantics(
    cls, names, one, same, other
):
    assert one == same and one is not same and one != other
    assert hash(one) == hash(same)
    assert cls(**{n: getattr(one, n) for n in names}) == one
    assert [f.name for f in dataclasses.fields(one)] == list(names)
    assert repr(one) == f"{cls.__name__}(" + ", ".join(
        f"{n}={getattr(one, n)!r}" for n in names
    ) + ")"
    for name in (*names, "extra"):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(one, name, getattr(other, name, None))
    with pytest.raises(dataclasses.FrozenInstanceError):
        delattr(one, names[0])
    replaced = dataclasses.replace(one, **{names[-1]: getattr(other, names[-1])})
    assert getattr(replaced, names[-1]) == getattr(other, names[-1])
    assert getattr(replaced, names[0]) is getattr(one, names[0])
    for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
        assert pickle.loads(pickle.dumps(one, protocol)) == one
    assert copy.deepcopy(one) == one and copy.copy(one) == one
