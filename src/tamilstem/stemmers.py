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

Two walks apply the rules, each over two class masks: the classes the
first rule may take and those allowed after each step, or None to
follow the rule's ``next_classes``.  ``_walk`` walks a word's letters.
``_walk_text`` walks text in which `_NOT_FAST_NFC` finds nothing, and
hands over to ``_walk`` where the text or a step must be segmented.
``strip_stem`` and ``light_stem`` walk the letters of a `GraphemeWord`
or of other text, and walk a `str` in that range as text: its
`StemResult` then builds its trace when a caller first reads it, and
its words hold only their text until a caller first reads their
letters.  A caller that needs only the stem's text, such as
``tamilstem stem`` and ``_both`` (the strip and light stems that
``tamilstem eval`` and ``compare`` score), walks text too and builds no
`StemResult`.  A walk records its steps only for a caller that passes
it a list.  All leave unmatched words untouched, including non-Tamil
input.
"""

from __future__ import annotations

from .graphemes import _NOT_FAST_NFC, GraphemeWord, _as_word, _deferred
from .graphemes import _record, _text_word, normalize, segment, word
from .rules import (
    ALL_CLASSES,
    RuleSet,
    SuffixRule,
    _apply,
    _class_mask,
    _first_match,
    _first_text_match,
    builtin_rules,
)

__all__ = [
    "ENGINES",
    "StemResult",
    "StemStep",
    "light_stem",
    "stem_batch",
    "strip_stem",
]

# Each walk's (first, then) class masks (see `_walk` and
# rules._class_mask).
_ALL = _class_mask(ALL_CLASSES)
_STRIP = (_ALL, _ALL)
_LIGHT = (_ALL, None)


@_record
class StemStep:
    """One applied rule: the word before and after the application."""

    rule: SuffixRule
    before: GraphemeWord
    after: GraphemeWord


@_record
class StemResult:
    """Final stem plus the ordered trace of rule applications.

    The results ``light_stem`` and ``strip_stem`` give a `str` walked as
    text build their trace when *trace* is first read, if a rule
    matched.  Until then ``type()`` gives the private `_TextResult`;
    ``isinstance`` and ``__class__`` give `StemResult` throughout.
    """

    word: GraphemeWord
    stem: GraphemeWord
    trace: tuple[StemStep, ...]


def _walk(
    rules: RuleSet,
    text: GraphemeWord | str,
    masks: tuple[int, int | None],
    steps: list[StemStep] | None = None,
) -> GraphemeWord:
    """Apply the first candidate rule repeatedly; return the stem.

    *masks* is a pair ``(first, then)``.  The first rule's class must be
    in the mask *first*; after each step, in *then*, or where *then* is
    None, in the applied rule's ``next_classes``, so a terminal rule ends
    the walk.  Every rule shortens the word, so the walk always
    terminates.  A word no rule matches costs one lookup and is its own
    stem.

    A trace is built only when asked for: given a list *steps*, the walk
    appends one `StemStep` per applied rule to it, and otherwise builds
    no `StemStep` at all.
    """
    w = _as_word(text)
    first, then = masks
    entry = _first_match(rules, w, first)
    while entry is not None:
        rule, _bit, next_mask, _shortest, _kept, tail = entry
        after = _apply(w, rule, tail is None)
        if steps is not None:
            steps.append(StemStep(rule, w, after))
        w = after
        allowed = next_mask if then is None else then
        entry = _first_match(rules, w, allowed) if allowed else None
    return w


def _walk_text(
    rules: RuleSet,
    text: str,
    masks: tuple[int, int | None],
    steps=None,
    fast=False,
) -> str:
    """The text of ``_walk(rules, text, masks)``; given a list *steps*,
    append one ``(rule, text after the step)`` pair per applied rule.

    Where `_NOT_FAST_NFC` finds nothing in *text*, each step cuts the
    pattern's text and appends the replacement's, which keeps the text
    NFC and in `_LETTER`'s range, so the next probe reads it as it is.
    A caller that has already scanned *text* and found nothing passes
    *fast*, and the walk does not scan it again.  ``_walk`` walks the
    letters of any other text, and takes over at the first step that
    must re-segment (see `rules._resegments`; the entry's replacement
    text is None), starting with this step's probe.
    """
    first, then = masks
    if fast or _NOT_FAST_NFC.search(text) is None:
        entry = _first_text_match(rules, text, first)
        while entry is not None:
            rule, _bit, next_mask, _shortest, _kept, tail = entry
            if tail is None:  # the step must re-segment: hand over
                break
            text = text[: -len(rule.pattern.text)] + tail
            if steps is not None:
                steps.append((rule, text))
            first = next_mask if then is None else then
            entry = _first_text_match(rules, text, first) if first else None
        else:
            return text
    letters = None if steps is None else []
    stem = _walk(rules, word(text), (first, then), letters)
    if letters:
        steps.extend((step.rule, step.after.text) for step in letters)
    return stem.text


_get_trace = StemResult.trace.__get__


def _trace_of(result):
    """The trace of a `_TextResult`, from the ``(rule, text after the
    step)`` pairs its slot holds.  The first step starts from
    ``result.word`` and the last ends at ``result.stem``, the same
    objects; the words between hold only their text, each step's *after*
    being the next step's *before*."""
    steps = _get_trace(result)
    if steps.__class__ is tuple:  # a racing first read stored it
        return steps
    before = result.word
    if len(steps) == 1:  # most words a rule matches take one step
        return (StemStep(steps[0][0], before, result.stem),)
    trace = []
    for rule, text in steps[:-1]:
        after = _text_word(text)
        trace.append(StemStep(rule, before, after))
        before = after
    trace.append(StemStep(steps[-1][0], before, result.stem))
    return tuple(trace)


# A `StemResult` whose trace slot holds the text walk's (rule, text)
# pairs until its trace is first read.
_TextResult = _deferred("_TextResult", StemResult, "trace", _trace_of)


def _text_result(
    rules: RuleSet, text: str, masks: tuple[int, int | None]
) -> StemResult:
    """The `StemResult` of ``_walk(rules, text, masks)`` for *text* in
    which `_NOT_FAST_NFC` finds nothing, from ``_walk_text``.  Its words
    hold only their text, and where a rule matched, its trace is built
    when first read."""
    steps: list[tuple[SuffixRule, str]] = []
    stem = _walk_text(rules, text, masks, steps, True)
    w = _text_word(text)
    if not steps:  # no rule matches: the word is its own stem
        return StemResult(w, w, ())
    return _TextResult(w, _text_word(stem), steps)


def strip_stem(
    text: GraphemeWord | str, rules: RuleSet | None = None
) -> StemResult:
    """Iteratively remove the longest matching suffix of any class.

    Stops when no rule matches or stripping would drop below a rule's
    minimum stem length.

    A `str` that `_NOT_FAST_NFC` finds nothing in is walked as text; the
    result's trace is built, and its words split their letters, when
    first read.
    """
    if rules is None:
        rules = builtin_rules()
    if isinstance(text, str):
        if _NOT_FAST_NFC.search(text) is None:
            return _text_result(rules, text, _STRIP)
        text = segment(normalize(text))  # as `word` would, searching once
    # Written out here and in light_stem: a shared helper would add a
    # call to every stem, a few per cent of a word's time.
    steps: list[StemStep] = []
    stem = _walk(rules, text, _STRIP, steps)
    if not steps:  # no rule matches: the word is its own stem
        return StemResult(stem, stem, ())
    return StemResult(steps[0].before, stem, tuple(steps))


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


def light_stem(
    text: GraphemeWord | str, rules: RuleSet | None = None
) -> StemResult:
    """Strip suffixes outermost-first along the class transition table.

    The first rule may come from any class; each subsequent rule must
    belong to the previous rule's ``next_classes``.  An empty
    ``next_classes`` marks a terminal layer and ends the loop.

    A `str` that `_NOT_FAST_NFC` finds nothing in is walked as text; the
    result's trace is built, and its words split their letters, when
    first read.
    """
    if rules is None:
        rules = builtin_rules()
    if isinstance(text, str):
        if _NOT_FAST_NFC.search(text) is None:
            return _text_result(rules, text, _LIGHT)
        text = segment(normalize(text))  # as `word` would, searching once
    steps: list[StemStep] = []
    stem = _walk(rules, text, _LIGHT, steps)
    if not steps:  # no rule matches: the word is its own stem
        return StemResult(stem, stem, ())
    return StemResult(steps[0].before, stem, tuple(steps))


def _both(rules: RuleSet | None, text: str, fast=False) -> tuple[str, str]:
    """The strip and light stems of *text*, from one walk where they agree.

    While each of strip's steps takes a class in the previous rule's
    ``next_classes``, light takes the same steps: both probe the same
    index in the same order, and light allows a subset of strip's
    classes.  So with fewer than two steps, and where all of strip's
    steps from the second on do, both stems are the same text.  Past the
    first that does not, light has stopped or parted ways, so it walks
    the text again.  Both walks take *fast* as `_walk_text` does.
    """
    if rules is None:
        rules = builtin_rules()
    steps: list[tuple[SuffixRule, str]] = []
    strip = _walk_text(rules, text, _STRIP, steps, fast)
    if len(steps) > 1:
        prev = steps[0][0]
        for rule, _ in steps[1:]:
            if rule.klass not in prev.next_classes:
                return strip, _walk_text(rules, text, _LIGHT, None, fast)
            prev = rule
    return strip, strip


ENGINES = {"strip": strip_stem, "light": light_stem}
# The masks each engine walks with, for `tamilstem stem`.
_ENGINE_MASKS = {"strip": _STRIP, "light": _LIGHT}
