"""Suffix rule model: parsing, validation, lookup, and the shipped inventory.

A rule says: if a word ends with *pattern*, replace that ending with
*replacement* (often empty), provided at least *min_stem* letters remain.
Rules are grouped into classes (plural markers, case endings, tense
endings, ...) and each rule names which classes are allowed to match next,
which is what lets the light stemmer walk suffix layers from the outside
in.

Rule files are tab-separated UTF-8 lines::

    class <TAB> pattern <TAB> replacement <TAB> min_stem <TAB> next_classes

with ``#`` comments, blank lines ignored, and next_classes a
comma-separated list (empty means terminal).  Replacements must be
strictly shorter than their patterns so every application shortens the
word and stemming always terminates.

Each ``RuleSet`` compiles its rules once into a suffix index, in the
manner of Snowball's ``among`` table: one table maps each pattern's text
to its rules in file order.  It has two keys.  A word's last letter
gives the code-point lengths of the patterns ending in it, longest
first, so a lookup probes one suffix of the word's text per length,
and a word whose final letter ends no pattern costs one dictionary
miss.  A text's last two code points give the same lengths, so
`_first_text_match` finds the same rule from a word's raw text,
without segmenting it, for text that `_NOT_FAST_NFC` finds nothing in.
There, whether two letters come before a pattern is read from the
text's second or third code point; only where neither settles it, or
where a rule keeps more, does `_LETTER` split the text before the
pattern to count its letters (see `_first_text_match`).
"""

import enum
import re
from dataclasses import dataclass, field
from functools import lru_cache

from .graphemes import (
    _DEPENDENT_SIGNS,
    _JOINS,
    _LETTER,
    _NOT_FAST_NFC,
    GraphemeWord,
    _data_lines,
    _joins_previous,
    _packaged_text,
    _record,
    word,
)

__all__ = [
    "ALL_CLASSES",
    "RuleConflictError",
    "RuleError",
    "RuleSet",
    "SuffixClass",
    "SuffixRule",
    "apply_rule",
    "builtin_rules",
    "candidates",
    "parse_rules",
    "render_rules",
]


class SuffixClass(enum.Enum):
    VOCATIVE = "Vocative"
    CASE = "Case"
    PLURAL = "Plural"
    ADJECTIVAL_PARTICIPLE = "AdjectivalParticiple"
    TENSE = "Tense"
    PERSON_NUMBER_GENDER = "PersonNumberGender"
    NEGATIVE_COMPOUND = "NegativeCompound"

    def __init__(self, value: str):
        # Hashed from the value's bytes, not by string hashing, which
        # varies with PYTHONHASHSEED: a frozenset of classes then prints
        # in the same order in every process.
        self._hash = hash(int.from_bytes(value.encode(), "big"))

    def __hash__(self) -> int:
        return self._hash

    def __str__(self) -> str:
        return self.value


_CLASS_BY_NAME = {c.value: c for c in SuffixClass}

ALL_CLASSES = frozenset(SuffixClass)

_BIT = {c: 1 << i for i, c in enumerate(SuffixClass)}


def _class_mask(classes) -> int:
    """A set of classes as an integer with one bit per class."""
    return sum(_BIT[klass] for klass in classes)


class RuleError(ValueError):
    """A rule file failed validation; carries the offending line number."""

    def __init__(self, message: str, line: int | None = None):
        super().__init__(message)
        self.line = line


class RuleConflictError(RuleError):
    """Two rules share the same (class, pattern)."""

    def __init__(self, message: str, first_line: int, second_line: int):
        super().__init__(message, line=second_line)
        self.first_line = first_line
        self.second_line = second_line


@_record
class SuffixRule:
    """One rule-file line; *order* is its position among the rules."""

    klass: SuffixClass
    pattern: GraphemeWord
    replacement: GraphemeWord
    min_stem: int
    next_classes: frozenset[SuffixClass]
    order: int


# A suffix-index entry: (rule, its class bit, the mask of its
# next_classes, the shortest word it applies to, the fewest letters it
# must keep before its pattern, and its replacement text, or None where
# a step must re-segment (see `_resegments`)).
_Entry = tuple[SuffixRule, int, int, int, int, str | None]


@dataclass(frozen=True)
class RuleSet:
    """Immutable rule collection, checked and indexed when built."""

    rules: tuple[SuffixRule, ...]
    # The suffix index, compiled from *rules*: pattern text -> entries
    # in file order.  Its keys: final letter -> the code-point lengths
    # of the patterns ending in it, longest first; and last two code
    # points -> those of the longer patterns ending in them, longest
    # first, then 1, for the patterns of one code point.
    _index: dict[str, tuple[_Entry, ...]] = field(
        init=False, compare=False, repr=False
    )
    _lengths: dict[str, tuple[int, ...]] = field(
        init=False, compare=False, repr=False
    )
    _text_lengths: dict[str, tuple[int, ...]] = field(
        init=False, compare=False, repr=False
    )

    def __post_init__(self) -> None:
        index: dict[str, list[_Entry]] = {}
        lengths: dict[str, set[int]] = {}
        text_lengths: dict[str, set[int]] = {}
        seen: dict[tuple[SuffixClass, str], int] = {}
        for position, rule in enumerate(self.rules):
            pattern = rule.pattern.text
            if defect := _defect(rule.pattern, rule.replacement, rule.min_stem):
                raise RuleError(f"rule {position}: {defect}")
            first = seen.setdefault((rule.klass, pattern), position)
            if first != position:
                raise RuleError(
                    f"duplicate rule for class {rule.klass} pattern "
                    f"{pattern!r}: rules {first} and {position}"
                )
            replacement = rule.replacement.text
            kept = rule.min_stem - len(rule.replacement) + _merges(replacement)
            index.setdefault(pattern, []).append(
                (
                    rule,
                    _BIT[rule.klass],
                    _class_mask(rule.next_classes),
                    kept + len(rule.pattern),
                    kept,
                    None if _resegments(replacement) else replacement,
                )
            )
            lengths.setdefault(rule.pattern.graphemes[-1], set()).add(len(pattern))
            if len(pattern) > 1:
                text_lengths.setdefault(pattern[-2:], set()).add(len(pattern))
        set_field = object.__setattr__  # the class is frozen
        set_field(self, "_index", {p: tuple(es) for p, es in index.items()})
        set_field(
            self,
            "_lengths",
            {last: tuple(sorted(ks, reverse=True)) for last, ks in lengths.items()},
        )
        set_field(
            self,
            "_text_lengths",
            {
                last: (*sorted(ks, reverse=True), 1)
                for last, ks in text_lengths.items()
            },
        )

    def __len__(self) -> int:
        return len(self.rules)


_HANGUL_JOINS = re.compile("[\u1161-\u1175]?[\u11a8-\u11c2]?")  # vowel, final


def _merges(replacement: str) -> int:
    """How many letters of *replacement* may join the letter before it,
    counted from the rule alone: one where it starts with a combining
    mark or joiner, as every dependent sign does, else its leading
    Hangul vowel and final jamo, which NFC composes with an initial or
    syllable (ᆨ after 가 is 각), as it does no other non-mark.  This errs
    toward keeping more where the letter before does not take them."""
    if replacement and _joins_previous(replacement[0]):
        return 1
    return _HANGUL_JOINS.match(replacement).end()


def _resegments(replacement: str) -> bool:
    """Whether a step appending *replacement* goes through `word`: where
    it merges, or holds text `_NOT_FAST_NFC` finds something in.  Any
    other keeps NFC text NFC and adds its own letters."""
    return _merges(replacement) > 0 or _NOT_FAST_NFC.search(replacement) is not None


def _defect(pattern: GraphemeWord, replacement=None, min_stem=1) -> str | None:
    """The first defect, in field order, of a rule with these fields, or
    None.  Without a *replacement*, only the pattern is checked."""
    if len(pattern) == 0:
        return "empty pattern"
    if pattern.text[0] in _DEPENDENT_SIGNS:
        return (
            f"pattern {pattern.text!r} starts with a vowel sign or pulli, "
            "so it can only match malformed text"
        )
    if _joins_previous(pattern.text[0]):
        return (
            f"pattern {pattern.text!r} starts with a combining mark or "
            "joiner, which joins the letter before it"
        )
    if replacement is not None and len(replacement) >= len(pattern):
        return (
            f"replacement {replacement.text!r} is not shorter than pattern "
            f"{pattern.text!r}; rule would not terminate"
        )
    if not isinstance(min_stem, int):
        return f"min_stem {min_stem!r} is not an integer"
    if min_stem < 1:
        return "min_stem must be >= 1"
    return None


def _line_error(lineno: int, message, *_) -> RuleError:  # `*_`: the line
    return RuleError(f"line {lineno}: {message}", line=lineno)


def _parse_line(lineno: int, line: str, order: int) -> SuffixRule:
    def lookup(name: str, kind: str) -> SuffixClass:
        klass = _CLASS_BY_NAME.get(name.strip())
        if klass is None:
            raise _line_error(lineno, f"unknown {kind} {name.strip()!r}")
        return klass

    fields = line.split("\t")
    if len(fields) != 5:
        raise _line_error(
            lineno, f"expected 5 tab-separated fields, got {len(fields)}"
        )
    class_name, pattern_text, replacement_text, min_stem_text, next_text = fields
    klass = lookup(class_name, "suffix class")
    try:
        min_stem = int(min_stem_text)
    except ValueError:
        min_stem = min_stem_text  # which `_defect` reports
    pattern = word(pattern_text.strip())
    # A bad pattern is reported before the replacement is read, which
    # raises ValueError on a lone surrogate.
    defect = _defect(pattern) or _defect(
        pattern, replacement := word(replacement_text.strip()), min_stem
    )
    if defect:
        raise _line_error(lineno, defect)
    names = next_text.split(",") if next_text.strip() else []
    next_classes = frozenset(lookup(name, "next class") for name in names)
    return SuffixRule(klass, pattern, replacement, min_stem, next_classes, order)


def _scan(text: str) -> tuple[list[SuffixRule], list[RuleError]]:
    """The valid rules of *text*, and its problems in line order.  A
    comment that carries a lone surrogate, the residue of a failed
    decode, is the last problem: the scan ends there."""
    rules: list[SuffixRule] = []
    problems: list[RuleError] = []
    seen: dict[tuple[SuffixClass, str], int] = {}
    try:
        for lineno, line in _data_lines(text, _line_error):
            try:
                rule = _parse_line(lineno, line, len(rules))
            except RuleError as exc:
                problems.append(exc)
                continue
            except ValueError as exc:  # a lone surrogate from a failed decode
                problems.append(_line_error(lineno, exc))
                continue
            key = (rule.klass, rule.pattern.text)
            if key in seen:
                problems.append(
                    RuleConflictError(
                        f"duplicate rule for class {rule.klass} pattern "
                        f"{rule.pattern.text!r}: "
                        f"lines {seen[key]} and {lineno}",
                        first_line=seen[key],
                        second_line=lineno,
                    )
                )
            else:
                seen[key] = lineno
                rules.append(rule)
    except RuleError as exc:  # from `_data_lines`: a bad comment
        problems.append(exc)
    return rules, problems


def parse_rules(text: str) -> RuleSet:
    """Parse and validate a rule file; raises RuleError on the first defect."""
    rules, problems = _scan(text)
    if problems:
        raise problems[0]
    return RuleSet(tuple(rules))


def render_rules(ruleset: RuleSet) -> str:
    """Serialize back to the rule-file format; inverse of parse_rules."""
    lines = []
    for rule in ruleset.rules:
        next_text = ",".join(
            sorted(c.value for c in rule.next_classes)
        )
        lines.append(
            "\t".join(
                (
                    rule.klass.value,
                    rule.pattern.text,
                    rule.replacement.text,
                    str(rule.min_stem),
                    next_text,
                )
            )
        )
    return "\n".join(lines) + ("\n" if lines else "")


@lru_cache(maxsize=1)
def builtin_rules() -> RuleSet:
    """The shipped rule inventory (see data/builtin_rules.tsv)."""
    return parse_rules(_packaged_text("builtin_rules.tsv"))


def candidates(
    rules: RuleSet,
    word: GraphemeWord,
    allowed: frozenset[SuffixClass] | set[SuffixClass],
) -> list[SuffixRule]:
    """Applicable rules for *word*, longest pattern first, file order on ties.

    A rule is applicable when its class is allowed, its pattern is a
    suffix of the word, and applying it would leave at least min_stem
    letters.
    """
    g, text = word.graphemes, word.text
    out = []
    for k in rules._lengths.get(g[-1], ()) if g else ():
        if k <= len(text):
            entries = rules._index.get(text[-k:], ())
            for rule, _bit, _next, shortest, _kept, _tail in entries:
                if len(g) >= shortest and rule.klass in allowed:
                    out.append(rule)
    return out


def _first_match(rules: RuleSet, w: GraphemeWord, mask: int) -> _Entry | None:
    """The index entry of the first applicable rule whose class bit is
    in *mask*: the rule ``candidates`` would list first.  No pattern
    starts with a code point that joins the letter before it (see
    `_defect`), so both probe *w*'s text for the patterns that end its
    letters, the longer in letters (and in code points) first."""
    g, text = w.graphemes, w.text
    if not g:
        return None
    n, m = len(g), len(text)
    index = rules._index
    for k in rules._lengths.get(g[-1], ()):
        if k <= m:
            for entry in index.get(text[-k:], ()):
                if entry[1] & mask and n >= entry[3]:
                    return entry
    return None


def _first_text_match(rules: RuleSet, text: str, mask: int) -> _Entry | None:
    """The entry `_first_match` finds for the letters of *text*, found
    from *text* alone, which must be text that `_NOT_FAST_NFC` finds
    nothing in: NFC, and split into letters by `_LETTER`.

    It probes the same code-point lengths, read under *text*'s last two
    code points instead of its last letter.  The letters a rule keeps
    before its pattern are read from code points where they can be:
    each letter is at least one, any text is at least one letter, and
    in such text a code point outside `graphemes._JOINS` always starts
    a letter, so where ``text[1]``, or ``text[2]`` before the pattern,
    is one, there are two.  Where neither is, and for a rule that keeps
    three letters or more, `_LETTER` splits the text before the pattern
    and its letters are counted.  No pattern starts with a code point
    of `_JOINS` (see `_defect`), so that text ends where a letter does,
    and its letters are the first letters of *text*.
    """
    n = len(text)
    index = rules._index
    for k in rules._text_lengths.get(text[-2:], (1,)):
        entries = index.get(text[-k:]) if k <= n else None
        if entries is not None:
            end = n - k
            for entry in entries:
                need = entry[4]
                if (
                    entry[1] & mask
                    and need <= end
                    and (
                        need < 2
                        or (
                            need == 2
                            and (
                                text[1] not in _JOINS
                                or (end > 2 and text[2] not in _JOINS)
                            )
                        )
                        or len(_LETTER.findall(text, 0, end)) >= need
                    )
                ):
                    return entry
    return None


def _apply(w: GraphemeWord, rule: SuffixRule, resegments: bool) -> GraphemeWord:
    """*w* with *rule*'s pattern replaced, through `word` if *resegments*."""
    pattern, replacement = rule.pattern, rule.replacement
    kept = w.text[: -len(pattern.text)]  # patterns are never empty
    if resegments:
        return word(kept + replacement.text)
    return GraphemeWord(
        w.graphemes[: -len(pattern.graphemes)] + replacement.graphemes,
        kept + replacement.text,
    )


def apply_rule(word: GraphemeWord, rule: SuffixRule) -> GraphemeWord:
    """Strip the matched pattern and append the replacement.

    *rule* must match the end of *word*, as every rule ``candidates``
    returns does.  The result is normalized and re-segmented only where
    the replacement may join the kept text (a vowel sign, or ᆨ after 가;
    see `_resegments`), so the NFC and letter-sequence invariants hold
    for such user rules too.
    """
    return _apply(word, rule, _resegments(rule.replacement.text))
