"""Both stemming engines."""

import copy
import dataclasses
import pickle
import random
import sys
import threading
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
        # A stem walked as text, whose letters nothing has read yet.
        (GraphemeWord, ("graphemes", "text"),
         light_stem("மரங்கள்").stem, GraphemeWord(("ம", "ர", "ம்"), "மரம்"),
         trees),
        (StemStep, ("rule", "before", "after"),
         step, StemStep(step.rule, trees, tree), tense.trace[0]),
        (StemResult, ("word", "stem", "trace"),
         plural, StemResult(trees, tree, (step,)), tense),
        # A result of a `str` walked as text, whose trace nothing has
        # read yet.
        (StemResult, ("word", "stem", "trace"),
         light_stem("மரங்கள்"), StemResult(trees, tree, (step,)), tense),
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
    ids=["GraphemeWord", "GraphemeWord-unread", "StemStep", "StemResult",
         "StemResult-unread", "SuffixRule", "GoldEntry", "EvalRow",
         "EvalReport"],
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


def _unread_stem():
    """The stem of a `str` walked as text, its letters not yet split."""
    stem = light_stem("மரங்கள்").stem
    assert type(stem) is not GraphemeWord
    return stem


def test_an_unread_word_keeps_the_value_class_contract():
    tree = word("மரம்")
    # Before the first read only type() tells it from an eager word.
    stem = _unread_stem()
    assert isinstance(stem, GraphemeWord) and stem.__class__ is GraphemeWord
    assert type(stem) is not GraphemeWord and stem.text == "மரம்"
    for name in ("graphemes", "text", "extra"):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(_unread_stem(), name, ())
        with pytest.raises(dataclasses.FrozenInstanceError):
            delattr(_unread_stem(), name)
    with pytest.raises(
        AttributeError, match="^'GraphemeWord' object has no attribute 'extra'$"
    ):
        _unread_stem().extra
    assert not hasattr(_unread_stem(), "__deepcopy__")
    for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
        assert pickle.loads(pickle.dumps(_unread_stem(), protocol)) == tree
    assert copy.copy(_unread_stem()) == tree
    assert copy.deepcopy(_unread_stem()) == tree
    # Each a first read of the letters.
    assert _unread_stem() == tree and tree == _unread_stem()
    assert hash(_unread_stem()) == hash(tree)
    assert repr(_unread_stem()) == repr(tree)
    assert len(_unread_stem()) == len(tree)
    # After it, the word is a plain GraphemeWord.
    stem = _unread_stem()
    assert stem.__class__ is GraphemeWord
    assert stem.graphemes == tree.graphemes and type(stem) is GraphemeWord


def _unread_result():
    """The result of a `str` walked as text, its trace not yet built."""
    result = light_stem("மரங்கள்")
    assert type(result) is not StemResult
    return result


def test_an_unread_result_keeps_the_value_class_contract():
    trees = light_stem(word("மரங்கள்"))
    # Before the first read only type() tells it from an eager result.
    result = _unread_result()
    assert isinstance(result, StemResult) and result.__class__ is StemResult
    assert result.stem.text == "மரம்" and type(result) is not StemResult
    for name in ("word", "stem", "trace", "extra"):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(_unread_result(), name, ())
        with pytest.raises(dataclasses.FrozenInstanceError):
            delattr(_unread_result(), name)
    with pytest.raises(
        AttributeError, match="^'StemResult' object has no attribute 'extra'$"
    ):
        _unread_result().extra
    assert not hasattr(_unread_result(), "__deepcopy__")
    for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
        assert pickle.loads(pickle.dumps(_unread_result(), protocol)) == trees
    assert copy.copy(_unread_result()) == trees
    assert copy.deepcopy(_unread_result()) == trees
    # Each a first read of the trace.
    assert _unread_result() == trees and trees == _unread_result()
    assert hash(_unread_result()) == hash(trees)
    assert repr(_unread_result()) == repr(trees)
    # After it, the result is a plain StemResult whose steps start from
    # its word and end at its stem, the same objects.
    result = _unread_result()
    (step,) = result.trace
    assert type(result) is StemResult and result.trace == trees.trace
    assert step.before is result.word and step.after is result.stem


def test_a_first_read_that_finds_the_trace_built_returns_it():
    # A thread that starts a first read while another finishes one finds
    # the built trace in the slot, and keeps it.
    for text in ("மரங்கள்", "மரங்கள்உக்கு"):
        result = light_stem(text)
        first_read = type(result).trace.fget
        trace = result.trace
        assert first_read(result) is trace and result.trace is trace
        assert type(result) is StemResult


def test_first_reads_that_race_agree():
    # Four threads read the letters of the same unread words at once;
    # a short switch interval lets them interleave inside a first read.
    texts = [s for s, _ in STRIP_CASES + LIGHT_CASES]
    results = [engine(t) for t in texts * 40 for engine in ENGINES.values()]
    expected = [engine(word(t)) for t in texts * 40 for engine in ENGINES.values()]
    mismatches = []

    def read():
        for r, e in zip(results, expected):
            trace = r.trace
            if r != e or trace and (
                trace[0].before is not r.word or trace[-1].after is not r.stem
            ):
                mismatches.append(r)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=read) for _ in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert mismatches == []
    assert all(type(r.stem) is GraphemeWord for r in results)
    assert all(type(r) is StemResult for r in results)
