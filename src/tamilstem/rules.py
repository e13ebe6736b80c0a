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
"""

import enum
from dataclasses import dataclass, field
from functools import lru_cache

from .graphemes import (
    _DEPENDENT_SIGNS,
    GraphemeWord,
    _packaged_text,
    ends_with,
    normalize,
    segment,
)


class SuffixClass(enum.Enum):
    VOCATIVE = "Vocative"
    CASE = "Case"
    PLURAL = "Plural"
    ADJECTIVAL_PARTICIPLE = "AdjectivalParticiple"
    TENSE = "Tense"
    PERSON_NUMBER_GENDER = "PersonNumberGender"
    NEGATIVE_COMPOUND = "NegativeCompound"

    def __str__(self) -> str:
        return self.value


_CLASS_BY_NAME = {c.value: c for c in SuffixClass}

ALL_CLASSES = frozenset(SuffixClass)


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


@dataclass(frozen=True)
class SuffixRule:
    klass: SuffixClass
    pattern: GraphemeWord
    replacement: GraphemeWord
    min_stem: int
    next_classes: frozenset[SuffixClass]
    order: int

    def stem_length_after(self, word_len: int) -> int:
        """Letters left if this rule is applied to a word of *word_len*."""
        return word_len - len(self.pattern) + len(self.replacement)


@dataclass(frozen=True)
class RuleSet:
    """Immutable, validated rule collection."""

    rules: tuple[SuffixRule, ...]
    # Buckets rules by the final letter of their pattern so candidate
    # lookup touches only rules that can possibly match.
    _by_last: dict[str, tuple[SuffixRule, ...]] = field(
        compare=False, repr=False, default_factory=dict
    )

    def __len__(self) -> int:
        return len(self.rules)

    def find(self, klass: SuffixClass, pattern_text: str) -> SuffixRule | None:
        target = normalize(pattern_text)
        for rule in self.rules:
            if rule.klass is klass and rule.pattern.text == target:
                return rule
        return None


def _build_ruleset(rules: list[SuffixRule]) -> RuleSet:
    ordered = tuple(rules)
    match_order = sorted(ordered, key=lambda r: (-len(r.pattern), r.order))
    by_last: dict[str, list[SuffixRule]] = {}
    for rule in match_order:
        by_last.setdefault(rule.pattern.graphemes[-1], []).append(rule)
    return RuleSet(ordered, {k: tuple(v) for k, v in by_last.items()})


def _parse_line(lineno: int, line: str, order: int) -> SuffixRule:
    def error(message: str) -> RuleError:
        return RuleError(f"line {lineno}: {message}", line=lineno)

    def lookup(name: str, kind: str) -> SuffixClass:
        klass = _CLASS_BY_NAME.get(name.strip())
        if klass is None:
            raise error(f"unknown {kind} {name.strip()!r}")
        return klass

    fields = line.split("\t")
    if len(fields) != 5:
        raise error(f"expected 5 tab-separated fields, got {len(fields)}")
    class_name, pattern_text, replacement_text, min_stem_text, next_text = fields
    klass = lookup(class_name, "suffix class")
    pattern = segment(normalize(pattern_text))
    if len(pattern) == 0:
        raise error("empty pattern")
    if pattern.text[0] in _DEPENDENT_SIGNS:
        raise error(
            f"pattern {pattern.text!r} starts with a vowel sign or pulli, "
            "so it can only match malformed text"
        )
    replacement = segment(normalize(replacement_text))
    if len(replacement) >= len(pattern):
        raise error(
            f"replacement {replacement.text!r} is not shorter than pattern "
            f"{pattern.text!r}; rule would not terminate"
        )
    try:
        min_stem = int(min_stem_text)
    except ValueError:
        raise error(f"min_stem {min_stem_text!r} is not an integer") from None
    if min_stem < 1:
        raise error("min_stem must be >= 1")
    names = next_text.split(",") if next_text.strip() else []
    next_classes = frozenset(lookup(name, "next class") for name in names)
    return SuffixRule(
        klass, pattern, replacement, min_stem, next_classes, order
    )


def _scan(text: str) -> tuple[list[SuffixRule], list[RuleError]]:
    """The valid rules of *text*, and its problems in line order."""
    rules: list[SuffixRule] = []
    problems: list[RuleError] = []
    seen: dict[tuple[SuffixClass, str], int] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        if not line.strip() or line.lstrip().startswith("#"):
            continue
        try:
            rule = _parse_line(lineno, line, len(rules))
        except RuleError as exc:
            problems.append(exc)
            continue
        key = (rule.klass, rule.pattern.text)
        if key in seen:
            problems.append(
                RuleConflictError(
                    f"duplicate rule for class {rule.klass} pattern "
                    f"{rule.pattern.text!r}: lines {seen[key]} and {lineno}",
                    first_line=seen[key],
                    second_line=lineno,
                )
            )
        else:
            seen[key] = lineno
            rules.append(rule)
    return rules, problems


def parse_rules(text: str) -> RuleSet:
    """Parse and validate a rule file; raises RuleError on the first defect."""
    rules, problems = _scan(text)
    if problems:
        raise problems[0]
    return _build_ruleset(rules)


def validate_rules(text: str) -> list[str]:
    """Collect every diagnostic in a rule file instead of stopping at one."""
    return [str(problem) for problem in _scan(text)[1]]


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
    if not word.graphemes:
        return []
    bucket = rules._by_last.get(word.graphemes[-1])
    if not bucket:
        return []
    out = []
    n = len(word)
    for rule in bucket:
        if (
            rule.klass in allowed
            and rule.stem_length_after(n) >= rule.min_stem
            and ends_with(word, rule.pattern)
        ):
            out.append(rule)
    return out


def apply_rule(word: GraphemeWord, rule: SuffixRule) -> GraphemeWord:
    """Strip the matched pattern and append the replacement.

    Re-segments the result so the letter-sequence invariant holds even
    for user rules whose replacement begins with a dependent sign.
    """
    kept = word.graphemes[: len(word) - len(rule.pattern)]
    return segment("".join(kept) + rule.replacement.text)
