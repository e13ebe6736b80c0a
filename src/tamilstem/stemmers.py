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

Every entry point is one walk, ``_walk``, over two class masks: the
classes the first rule may take, and those allowed after each step, or
None to follow the rule's ``next_classes``.  All leave unmatched words
untouched, including non-Tamil input.  ``_both`` runs both engines on
a word for ``compare``; its docstring says when one walk serves both.
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

__all__ = [
    "ENGINES",
    "StemResult",
    "StemStep",
    "adjectival_to_verb",
    "light_stem",
    "stem_batch",
    "strip_plural",
    "strip_stem",
    "strip_tense",
]

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
    rules: RuleSet | None, text: GraphemeWord | str, first: int, then: int | None
) -> StemResult:
    """Apply the first candidate rule repeatedly, recording each step.

    The first rule's class must be in the mask *first*; after each step,
    in *then*, or where *then* is None, in the applied rule's
    ``next_classes``, so a terminal rule ends the walk.  Every rule
    shortens the word, so the walk always terminates.  A word no rule
    matches costs one lookup and returns at once, with an empty trace
    and the word itself as its stem.
    """
    if rules is None:
        rules = builtin_rules()
    start = w = _as_word(text)
    entry = _first_match(rules, w.graphemes, first)
    if entry is None:
        return StemResult(start, start, ())
    trace = []
    while entry is not None:
        rule, _bit, next_mask, _shortest, merges = entry
        after = _apply(w, rule, merges)
        trace.append(StemStep(rule, w, after))
        w = after
        allowed = next_mask if then is None else then
        entry = _first_match(rules, w.graphemes, allowed) if allowed else None
    return StemResult(start, w, tuple(trace))


def strip_stem(
    text: GraphemeWord | str, rules: RuleSet | None = None
) -> StemResult:
    """Iteratively remove the longest matching suffix of any class.

    Stops when no rule matches or stripping would drop below a rule's
    minimum stem length.
    """
    return _walk(rules, text, _ALL, _ALL)


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
    return _walk(rules, text, _PLURAL, 0).stem


def adjectival_to_verb(
    text: GraphemeWord | str, rules: RuleSet | None = None
) -> GraphemeWord:
    """Substitute an adjectival-participle ending with its verb base."""
    return _walk(rules, text, _PARTICIPLE, 0).stem


def strip_tense(
    text: GraphemeWord | str, rules: RuleSet | None = None
) -> GraphemeWord:
    """Remove one finite-verb ending (tense, negative, or bare PNG)."""
    return _walk(rules, text, _TENSE_LAYER, 0).stem


def light_stem(
    text: GraphemeWord | str, rules: RuleSet | None = None
) -> StemResult:
    """Strip suffixes outermost-first along the class transition table.

    The first rule may come from any class; each subsequent rule must
    belong to the previous rule's ``next_classes``.  An empty
    ``next_classes`` marks a terminal layer and ends the loop.
    """
    return _walk(rules, text, _ALL, None)


def _both(
    rules: RuleSet | None, text: GraphemeWord | str
) -> tuple[StemResult, StemResult]:
    """``(strip_stem(text, rules), light_stem(text, rules))`` in one walk.

    While each of strip's steps takes a class in the previous rule's
    ``next_classes``, light takes the same steps: both probe the same
    index in the same order, and light allows a subset of strip's
    classes.  If all of strip's steps do, both are the same (frozen)
    `StemResult`.  Past the first that does not, light has stopped or
    parted ways, so it walks the word again.
    """
    strip = _walk(rules, text, _ALL, _ALL)
    trace = strip.trace
    if len(trace) > 1:  # most words take 0 or 1 step: skip the slice
        for prev, step in zip(trace, trace[1:]):
            if step.rule.klass not in prev.rule.next_classes:
                return strip, _walk(rules, strip.word, _ALL, None)
    return strip, strip


ENGINES = {"strip": strip_stem, "light": light_stem}
