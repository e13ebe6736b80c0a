"""Unicode normalization and Tamil orthographic letter segmentation.

Everything downstream (rule matching, stripping, evaluation) operates on
sequences of orthographic letters, never on raw code points.  In Tamil a
user-perceived letter is either an independent vowel, or a consonant plus
an optional dependent vowel sign or pulli (virama).  Vowel signs and the
pulli are separate code points, so naive code-point suffix matching would
tear letters apart; clustering here makes suffix patterns match whole
letters only.

Text in other scripts degrades gracefully: a base character absorbs any
following combining marks, so ASCII romanizations segment one letter per
character and the engine works on them unchanged.

``word`` is the one fast path.  One search of ``_NOT_FAST_NFC`` finds
a code point outside the range below U+0300, the Tamil block
(U+0B80..U+0BFF) and the zero-width joiners, or one of the four code
point pairs NFC joins inside it: U+0B92 U+0BD7, U+0BC6 U+0BBE, U+0BC6
U+0BD7 and U+0BC7 U+0BBE (ஔ, ொ, ௌ and ோ).  In that range every code
point is NFC-stable on its own, only the pulli (U+0BCD) has a non-zero
combining class, and a code point of class 0 can join only the one
right before it, so text in which the search finds nothing is already
NFC; its combining marks are known at import, so ``_LETTER`` splits it
with one regular expression.  Other text goes through
``segment(normalize(text))``, the plain definitions, which the tests
check ``word`` against; they also pin the four pairs against the
running Python's ``unicodedata``.
"""

import os
import re
import unicodedata
from dataclasses import dataclass

__all__ = ["GraphemeWord", "normalize", "segment", "word"]

# Tamil block ranges (U+0B80..U+0BFF).
_AYTHAM = "ஃ"                      # ஃ stands alone
_INDEPENDENT_VOWELS = frozenset(chr(c) for c in range(0x0B85, 0x0B95))
_CONSONANTS = frozenset(
    chr(c) for c in range(0x0B95, 0x0BBA) if unicodedata.category(chr(c)) != "Cn"
)
# Dependent vowel signs, pulli, and the AU length mark attach to the
# preceding consonant.
_DEPENDENT_SIGNS = frozenset(
    chr(c) for c in range(0x0BBE, 0x0BCE) if unicodedata.category(chr(c)) != "Cn"
) | {"ௗ"}

_ZERO_WIDTH_JOINERS = frozenset("‌‍")


def _joins_previous(ch: str) -> bool:
    """Whether segmentation attaches *ch* to any letter before it: a
    combining mark (Mn, Mc, Me) or a zero-width joiner."""
    return (
        unicodedata.category(ch) in ("Mn", "Mc", "Me")
        or ch in _ZERO_WIDTH_JOINERS
    )


# The combining marks of the Tamil block.  No code point below U+0300 is
# one, so with the joiners these are all the marks a base character can
# absorb in text that `_NOT_FAST_NFC` does not match: there, any other
# code point starts a letter, which lets ``rules._first_text_match``
# read two letters from two code points.
_TAMIL_MARKS = frozenset(
    chr(c) for c in range(0x0B80, 0x0C00) if _joins_previous(chr(c))
)
_JOINS = _TAMIL_MARKS | _ZERO_WIDTH_JOINERS


def _char_class(chars) -> str:
    return "[" + re.escape("".join(sorted(chars))) + "]"


# Matches a code point outside the range `_LETTER` handles, or one of
# the only code point pairs NFC joins inside it: they compose to ஔ, ொ,
# ௌ and ோ.  Text it finds nothing in is NFC and split by `_LETTER`.
# The search starts with one character set, of the code points outside
# that range and the first code points of the pairs, so that `re` skips
# every other code point in C; the lookbehinds then tell a pair's first
# code point, which must be followed by its second, from the others.
# Callers only ask whether it finds something, not where.
_NOT_FAST_NFC = re.compile(
    r"[^\x00-\u02ff\u0b80-\u0b91\u0b93-\u0bc5\u0bc8-\u0bff\u200c\u200d]"
    r"(?:(?<=\u0b92)\u0bd7|(?<=\u0bc6)[\u0bbe\u0bd7]|(?<=\u0bc7)\u0bbe"
    r"|(?<![\u0b92\u0bc6\u0bc7]))"
)
# One letter, as `segment` clusters it: a consonant with its
# dependent signs, an independent vowel or aytham with any AU length
# mark, or any other character with its combining marks and joiners.
# `word` splits text with it, and ``rules._first_text_match`` counts
# with it the letters before a pattern where code points do not tell.
_LETTER = re.compile(
    _char_class(_CONSONANTS) + _char_class(_DEPENDENT_SIGNS) + "*"
    "|" + _char_class(_INDEPENDENT_VOWELS | {_AYTHAM}) + "ௗ*"
    "|." + _char_class(_JOINS) + "*",
    re.DOTALL,
)


def normalize(text: str) -> str:
    """Return the canonical composed (NFC) form of *text*.

    Idempotent.  Rejects strings carrying lone surrogates (the residue of
    a failed byte decode) rather than letting them propagate.

    The plain definition, with no shortcut: `word` is the fast way to
    ingest raw text.
    """
    try:
        text.encode("utf-8")
    except UnicodeEncodeError as exc:  # UTF-8 encodes all but surrogates
        raise ValueError(
            f"malformed text: lone surrogate at offset {exc.start}"
        ) from None
    return unicodedata.normalize("NFC", text)


def _record(cls):
    """Make *cls* a frozen dataclass with one slot per annotated field.

    The class is rebuilt with ``__slots__`` before ``dataclass`` sees it,
    not with ``slots=True``: that rebuilds it afterwards, and the rebuilt
    class's frozen ``__setattr__`` still names the old class, so it raises
    TypeError instead of FrozenInstanceError for an unknown attribute
    (seen on Python 3.11).  The generated ``__init__`` stores through the
    slot descriptors, because the one a frozen dataclass writes calls
    ``object.__setattr__`` per field, which costs about as much as a rule
    lookup.  ``__reduce__`` pickles and copies through ``__init__``; the
    default restores slots with setattr, which a frozen class refuses.
    """
    names = tuple(cls.__annotations__)
    body = {
        k: v
        for k, v in cls.__dict__.items()
        if k not in ("__dict__", "__weakref__")
    }
    body["__slots__"] = names
    body["__qualname__"] = cls.__qualname__
    cls = dataclass(frozen=True, init=False)(
        type(cls)(cls.__name__, cls.__bases__, body)
    )
    namespace = {f"_set_{n}": getattr(cls, n).__set__ for n in names}
    namespace["cls"] = cls
    exec(
        f"def __init__(self, {', '.join(names)}):\n"
        + "".join(f"    _set_{n}(self, {n})\n" for n in names)
        + "def __reduce__(self):\n"
        + f"    return cls, ({''.join(f'self.{n}, ' for n in names)})\n",
        namespace,
    )
    cls.__init__ = namespace["__init__"]
    cls.__reduce__ = namespace["__reduce__"]
    return cls


@_record
class GraphemeWord:
    """A word as an ordered sequence of orthographic letters.

    Invariant: ``"".join(graphemes) == text`` and *text* is NFC.  The
    engines read a word's *text*, last letter and letter count, so its
    letters must be those `segment` gives, as every word from `word`,
    `segment`, ``rules.apply_rule`` and the paradigm generator has.
    """

    graphemes: tuple[str, ...]
    text: str

    def __len__(self) -> int:
        return len(self.graphemes)

    def __str__(self) -> str:
        return self.text


def segment(text: str) -> GraphemeWord:
    """Split normalized *text* into orthographic letters.

    A Tamil consonant absorbs following dependent signs (vowel sign,
    pulli, AU length mark); independent vowels and aytham stand alone.
    Any other base character absorbs following combining marks and
    joiners, which is enough for romanized fixtures and incidental
    non-Tamil input.

    It walks one code point at a time, asking ``unicodedata`` about each
    possible mark: the plain definition, which `word`'s regular
    expression is tested against.  `word` is the fast way to ingest raw
    text.
    """
    clusters: list[str] = []
    i = 0
    n = len(text)
    while i < n:
        ch = text[i]
        j = i + 1
        if ch in _CONSONANTS:
            while j < n and text[j] in _DEPENDENT_SIGNS:
                j += 1
        elif ch in _INDEPENDENT_VOWELS or ch == _AYTHAM:
            # Absorb a stray length mark (ஔ decomposes to ஒ + ௗ; NFC
            # recomposes it, but be safe on non-NFC input).
            while j < n and text[j] == "ௗ":
                j += 1
        else:
            while j < n and _joins_previous(text[j]):
                j += 1
        clusters.append(text[i:j])
        i = j
    return GraphemeWord(tuple(clusters), text)


def word(text: str) -> GraphemeWord:
    """Normalize then segment; the usual ingestion path for raw strings.

    Text in which `_NOT_FAST_NFC` finds nothing is split at once: it is
    already NFC and in the range `_LETTER` handles.  Other text goes
    through `segment` of `normalize`, the definitions it is tested
    against.
    """
    if _NOT_FAST_NFC.search(text) is None:
        return GraphemeWord(tuple(_LETTER.findall(text)), text)
    return segment(normalize(text))


def _as_word(text: "GraphemeWord | str") -> GraphemeWord:
    return text if isinstance(text, GraphemeWord) else word(text)


def _packaged_text(name: str) -> str:
    """The UTF-8 text of a data file shipped in ``tamilstem/data``, read
    through this module's loader, so from a zip too."""
    path = os.path.join(os.path.dirname(__file__), "data", name)
    return __spec__.loader.get_data(path).decode("utf-8")


def _text_lines(text: str) -> "list[str]":
    """The lines of *text*: a line ends only at ``\\n``, and a leading
    byte-order mark is dropped.  Lines are not stripped: a CRLF ending
    leaves its ``\\r`` on the line."""
    return text.removeprefix("\ufeff").split("\n")


def _lines(source):
    """Number from 1 the lines of *source*, a text or a stream of lines,
    as `_text_lines` splits a text: its first line loses a leading
    byte-order mark."""
    lines = iter(source.split("\n") if isinstance(source, str) else source)
    first = next(lines, None)
    if first is not None:
        yield 1, first.removeprefix("\ufeff")
        yield from enumerate(lines, start=2)


def _data_lines(source, bad_comment):
    """`_lines` without the blank lines and ``#`` comments.

    A comment that carries a lone surrogate, the residue of a failed
    decode, raises ``bad_comment(lineno, message, line)``, as a data
    line carrying one would be reported.  Only comments are checked.
    """
    for lineno, line in _lines(source):
        text = line.lstrip()
        if text and text[0] != "#":
            yield lineno, line
        elif text:
            try:
                normalize(line)
            except ValueError as exc:
                raise bad_comment(lineno, str(exc), line) from None
