"""Two stemming engines over the same declarative rule data.

``strip_stem`` is the baseline: it repeatedly removes the single longest
matching suffix, pooling every rule class and ignoring the class
transition table.

``light_stem`` is the conservative engine: after each applied rule, only
the classes named by that rule's ``next_classes`` may match next, so
suffixes are peeled outermost-first along grammatically plausible paths
and stripping stops at a terminal class.  Substitution rules (plural
``ங்கள்``→``ம்``, participle ``டிய``→``டு``) restore the base form
instead of merely cutting.

Both engines leave unmatched words untouched, including non-Tamil input.
"""

from __future__ import annotations

from .graphemes import GraphemeWord, _as_word, _record
from .rules import (
    ALL_CLASSES,
    RuleSet,
    SuffixClass,
    SuffixRule,
    _apply,
    _class_mask,
    _first_match,
    builtin_rules,
)

# The class sets the entry points allow, as masks (see rules._class_mask).
_ALL = _class_mask(ALL_CLASSES)
_PLURAL = _class_mask({SuffixClass.PLURAL})
_PARTICIPLE = _class_mask({SuffixClass.ADJECTIVAL_PARTICIPLE})
_TENSE_LAYER = _class_mask(
    {
        SuffixClass.TENSE,
        SuffixClass.NEGATIVE_COMPOUND,
        SuffixClass.PERSON_NUMBER_GENDER,
    }
)


@_record
class StemStep:
    """One applied rule: the word before and after the application."""

    rule: SuffixRule
    before: GraphemeWord
    after: GraphemeWord


@_record
class StemResult:
    """Final stem plus the ordered trace of rule applications."""

    word: GraphemeWord
    stem: GraphemeWord
    trace: tuple[StemStep, ...]


def _walk(
    rules: RuleSet | None,
    text: GraphemeWord | str,
    allowed: int,
    chain: bool,
    max_steps: int | None = None,
) -> StemResult:
    """Apply the first candidate rule repeatedly, recording each step.

    *allowed* is a class mask.  With *chain*, each applied rule's
    ``next_classes`` become the classes allowed next, and a terminal
    rule ends the walk; without it every step may use any class in
    *allowed*.  Stops when no rule matches or after *max_steps*
    applications.  Every rule shortens the word, so the walk always
    terminates.
    """
    if rules is None:
        rules = builtin_rules()
    start = w = _as_word(text)
    trace = []
    while max_steps is None or len(trace) < max_steps:
        entry = _first_match(rules, w.graphemes, allowed)
        if entry is None:
            break
        rule, _bit, next_mask, _shortest, merges = entry
        after = _apply(w, rule, merges)
        trace.append(StemStep(rule, w, after))
        w = after
        if chain:
            if not next_mask:
                break
            allowed = next_mask
    return StemResult(start, w, tuple(trace))


def strip_stem(
    text: GraphemeWord | str, rules: RuleSet | None = None
) -> StemResult:
    """Iteratively remove the longest matching suffix of any class.

    Stops when no rule matches or stripping would drop below a rule's
    minimum stem length.
    """
    return _walk(rules, text, _ALL, chain=False)


def stem_batch(
    words: "list[GraphemeWord | str]",
    rules: RuleSet | None = None,
    engine=strip_stem,
) -> list[StemResult]:
    """Elementwise stemming; output order matches input order.

    Each distinct input is stemmed once per call, so equal inputs share
    one (frozen) ``StemResult`` object.
    """
    if rules is None:
        rules = builtin_rules()
    results: dict[GraphemeWord | str, StemResult] = {}
    out = []
    for w in words:
        if w not in results:
            results[w] = engine(w, rules)
        out.append(results[w])
    return out


def strip_plural(
    text: GraphemeWord | str, rules: RuleSet | None = None
) -> GraphemeWord:
    """Apply the single longest plural rule, or return the word as is."""
    return _walk(rules, text, _PLURAL, chain=False, max_steps=1).stem


def adjectival_to_verb(
    text: GraphemeWord | str, rules: RuleSet | None = None
) -> GraphemeWord:
    """Substitute an adjectival-participle ending with its verb base."""
    return _walk(rules, text, _PARTICIPLE, chain=False, max_steps=1).stem


def strip_tense(
    text: GraphemeWord | str, rules: RuleSet | None = None
) -> GraphemeWord:
    """Remove one finite-verb ending (tense, negative, or bare PNG)."""
    return _walk(rules, text, _TENSE_LAYER, chain=False, max_steps=1).stem


def light_stem(
    text: GraphemeWord | str, rules: RuleSet | None = None
) -> StemResult:
    """Strip suffixes outermost-first along the class transition table.

    The first rule may come from any class; each subsequent rule must
    belong to the previous rule's ``next_classes``.  An empty
    ``next_classes`` marks a terminal layer and ends the loop.
    """
    return _walk(rules, text, _ALL, chain=True)


def _both(
    rules: RuleSet, text: GraphemeWord | str
) -> tuple[StemResult, StemResult]:
    """``(strip_stem(text, rules), light_stem(text, rules))`` in one walk.

    Strip's walk runs with light's class mask tracked alongside.  While
    strip's rule is in that mask it is light's rule too: both probe the
    same index in the same order, and light's mask is a subset of
    strip's.  Light's result is taken where its chain ends; if strip
    stops while that chain is open, light stops there too and both are
    the same (frozen) `StemResult`.  Once strip picks a rule the mask
    forbids, light may part ways, so ``light_stem`` walks that word
    again from the start.
    """
    start = w = _as_word(text)
    trace = []
    light = None
    mask = _ALL  # the classes light allows next, 0 once light has stopped
    while True:
        entry = _first_match(rules, w.graphemes, _ALL)
        if entry is None:
            break
        rule, bit, next_mask, _shortest, merges = entry
        if mask and not bit & mask:
            light, mask = light_stem(start, rules), 0
        after = _apply(w, rule, merges)
        trace.append(StemStep(rule, w, after))
        w = after
        if mask:
            if not next_mask:
                light = StemResult(start, w, tuple(trace))
            mask = next_mask
    strip = StemResult(start, w, tuple(trace))
    return strip, strip if light is None else light


ENGINES = {"strip": strip_stem, "light": light_stem}
