"""An independent reference stemmer, paradigm and compare report, for
checking outputs.

It shares no code with tamilstem beyond reading the rule data from
``RuleSet.rules``: letters are split by its own regular expression and
the longest match is found by its own walk over a suffix table.  The
inflection tables that ``generate`` must reproduce are written out
below.  It covers Tamil text only, which is all the workloads generate.
"""

from __future__ import annotations

import re
import unicodedata
from dataclasses import dataclass
from fractions import Fraction

# A consonant with its vowel signs, pulli or AU length mark; an
# independent vowel or aytham with a stray length mark; anything else.
_LETTER = re.compile(
    "[\u0b95-\u0bb9][\u0bbe-\u0bcd\u0bd7]*|[\u0b83\u0b85-\u0b94]\u0bd7*|.", re.S
)

CSV_HEADER = "n_words,n_unique,correct_strip,acc_strip,correct_light,acc_light"


def letters(text: str) -> tuple[str, ...]:
    return tuple(_LETTER.findall(unicodedata.normalize("NFC", text)))


# The noun declension: the bare base, five shared case endings, locative,
# ablative and vocative, for the singular and then the plural.  M-final
# nouns (மரம்) swap the final ம் for ங்கள் in the plural, take the
# inanimate locative and ablative, and put the singular locative on the
# oblique base ending in த்.  Other nouns add கள் and take the animate ones.
_CASES = ("ஐ", "உக்கு", "ஓடு", "உடைய", "ஆல்")
_ANIMATE = ("இடம்", "இடமிருந்து")
_INANIMATE = ("இல்", "இலிருந்து")
# The verb conjugation: past, present, future and negative, each over
# 1sg, 2sg, 3sg-m, 3sg-f, 3sg-honorific, 3sg-n, 1pl, 2pl, 3pl, 3pl-n;
# the negative series ends with one extra cell.
_VERB_ENDINGS = (
    "த்தேன்", "த்தாய்", "த்தான்", "த்தாள்", "த்தார்", "த்தது",
    "த்தோம்", "த்தீர்கள்", "த்தார்கள்", "த்தன",
    "க்கிறேன்", "க்கிறாய்", "க்கிறான்", "க்கிறாள்", "க்கிறார்", "க்கிறது",
    "க்கிறோம்", "க்கிறீர்கள்", "க்கிறார்கள்", "க்கின்றன",
    "ப்பேன்", "ப்பாய்", "ப்பான்", "ப்பாள்", "ப்பார்", "க்கும்",
    "ப்போம்", "ப்பீர்கள்", "ப்பார்கள்", "க்கும்",
    "க்கமாட்டேன்", "க்கமாட்டாய்", "க்கமாட்டான்", "க்கமாட்டாள்", "க்கமாட்டார்",
    "க்காது", "க்கமாட்டோம்", "க்கமாட்டீர்கள்", "க்கமாட்டார்கள்", "க்காது",
    "க்கவில்லை",
)


def forms(root: str, paradigm: str) -> list[str]:
    """Every surface ``tamilstem generate`` prints for ``root``, in order.

    Every ending starts with a consonant or an independent vowel, so
    appending it to an NFC root gives NFC text.
    """
    root = unicodedata.normalize("NFC", root)
    if paradigm == "verb":
        surfaces = [root + e for e in _VERB_ENDINGS]
    else:
        split = letters(root)
        if split[-1] == "ம்":
            stem = "".join(split[:-1])
            bases, (loc, abl) = (root, stem + "ங்கள்"), _INANIMATE
        else:
            stem = None
            bases, (loc, abl) = (root, root + "கள்"), _ANIMATE
        surfaces = []
        for base in bases:
            block = [base, *(base + c for c in _CASES), base + loc, base + abl, base + "ஏ"]
            if stem is not None and base == root:
                block[6] = stem + "த்" + loc
            surfaces.extend(block)
    return surfaces


@dataclass(frozen=True)
class _Rule:
    klass: str
    pattern: str
    replacement: str
    replacement_len: int
    min_stem: int
    next_classes: frozenset[str]


class Reference:
    """Longest-match stemmer over one rule set's data, memoised per word."""

    def __init__(self, ruleset):
        self._by_suffix: dict[tuple[str, ...], list[_Rule]] = {}
        for rule in ruleset.rules:  # file order, so ties go to the earlier rule
            key = letters(rule.pattern.text)
            self._by_suffix.setdefault(key, []).append(
                _Rule(
                    rule.klass.value,
                    rule.pattern.text,
                    rule.replacement.text,
                    len(letters(rule.replacement.text)),
                    rule.min_stem,
                    frozenset(c.value for c in rule.next_classes),
                )
            )
        self._longest = max((len(k) for k in self._by_suffix), default=0)
        self._light: dict[str, tuple[str, tuple[tuple[str, str, str, str], ...]]] = {}
        self._strip: dict[str, str] = {}

    def _match(self, word: tuple[str, ...], allowed) -> _Rule | None:
        n = len(word)
        for k in range(min(self._longest, n), 0, -1):
            for rule in self._by_suffix.get(word[n - k:], ()):
                if (allowed is None or rule.klass in allowed) and (
                    n - k + rule.replacement_len >= rule.min_stem
                ):
                    return rule
        return None

    def _walk(self, text: str, follow: bool):
        word = letters(text)
        steps = []
        allowed = None
        while (rule := self._match(word, allowed)) is not None:
            kept = "".join(word[: len(word) - len(letters(rule.pattern))])
            word = letters(kept + rule.replacement)
            steps.append((rule.klass, rule.pattern, rule.replacement, "".join(word)))
            if follow:
                if not rule.next_classes:
                    break
                allowed = rule.next_classes
        return "".join(word), tuple(steps)

    def light(self, text: str):
        """(stem, steps) following the class transition table."""
        if text not in self._light:
            self._light[text] = self._walk(text, follow=True)
        return self._light[text]

    def strip(self, text: str) -> str:
        """Stem from repeated longest matches over every class."""
        if text not in self._strip:
            self._strip[text] = self._walk(text, follow=False)[0]
        return self._strip[text]

    def clear(self) -> None:
        """Forget the memoised stems, so the memo does not grow with the run."""
        self._light.clear()
        self._strip.clear()


def _tenths(value: Fraction) -> str:
    t = value.numerator * 10 // value.denominator
    return f"{t // 10}.{t % 10}"


def compare_csv(ref: Reference, gold, chunks) -> tuple[list[str], tuple[int, int, int]]:
    """Expected ``compare --format csv`` lines, plus the last chunk's
    counts: surfaces strip and light stem correctly, distinct surfaces."""
    expected: dict[str, str] = {}
    for surface, stem in gold:
        expected.setdefault(surface, stem)
    boundaries = set(chunks)
    seen: set[str] = set()
    ok_strip = ok_light = 0
    lines = [CSV_HEADER]
    accs: list[tuple[Fraction, Fraction]] = []
    for position, (surface, _) in enumerate(gold, start=1):
        if surface not in seen:
            seen.add(surface)
            ok_strip += ref.strip(surface) == expected[surface]
            ok_light += ref.light(surface)[0] == expected[surface]
        if position in boundaries:
            u = len(seen)
            acc = (Fraction(100 * ok_strip, u), Fraction(100 * ok_light, u))
            accs.append(acc)
            lines.append(f"{position},{u},{ok_strip},{_tenths(acc[0])},{ok_light},{_tenths(acc[1])}")
    avg_strip = sum(a for a, _ in accs) / len(accs)
    avg_light = sum(b for _, b in accs) / len(accs)
    lines.append(f"avg,,,{_tenths(avg_strip)},,{_tenths(avg_light)}")
    return lines, (ok_strip, ok_light, len(seen))


def count_mismatches(got: list[str], want: list[str]) -> int:
    """Lines that differ, counting missing and extra lines."""
    return sum(g != w for g, w in zip(got, want)) + abs(len(got) - len(want))


class Checker:
    """Counts checked outputs and mismatches; keeps the first few."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.hard_failure = False
        self.problems: list[str] = []

    def _note(self, problem: str) -> None:
        if len(self.problems) < 20:
            self.problems.append(problem)

    def values(self, what: str, got: list, want: list) -> None:
        bad = count_mismatches(got, want)
        self.attempted += max(len(want), 1)
        self.failed += bad
        if bad:
            self._note(f"{what}: {bad} value(s) differ from the reference")

    def lines(self, what: str, exit_code: int, got: str, want: list[str]) -> None:
        """Check a CLI run: every line of its stdout, and its exit code."""
        self.values(what, got.splitlines(), want)
        if exit_code != 0:
            self.failed += 1
            self._note(f"{what}: exit {exit_code}")

    def fail(self, problem: str) -> None:
        """A failed check that is not about one output, such as the floor."""
        self.hard_failure = True
        self._note(problem)

    @property
    def correct(self) -> bool:
        return self.failed == 0 and not self.hard_failure
