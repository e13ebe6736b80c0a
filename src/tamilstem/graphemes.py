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

``segment`` splits text with one compiled regular expression when every
code point is below U+0300, in the Tamil block (U+0B80..U+0BFF), or a
zero-width joiner or non-joiner: in that range the combining marks are
known at import.  Any other text goes through ``_segment_slow``, the
per-code-point loop that asks ``unicodedata`` about each character; the
tests check the regular expression against it.

``normalize`` skips NFC for most text in that same range.  There every
code point is NFC-stable on its own and only the pulli (U+0BCD) has a
non-zero combining class, so NFC reorders nothing, and a code point of
class 0 can join only the one right before it.  ``unicodedata`` joins
four such pairs there: U+0B92 U+0BD7, U+0BC6 U+0BBE, U+0BC6 U+0BD7 and
U+0BC7 U+0BBE (ஔ, ொ, ௌ and ோ).  Text in the range without one of them
is already NFC.  The tests pin those four pairs against the running
Python's ``unicodedata`` and check ``normalize`` against plain NFC.
"""

import os
import re
import unicodedata
from dataclasses import dataclass

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

# The combining marks (Mn, Mc, Me) of the Tamil block.  No code point
# below U+0300 is one, so with the joiners these are all the marks a base
# character can absorb in text that `_OUTSIDE_FAST_RANGE` does not match.
_TAMIL_MARKS = frozenset(
    chr(c) for c in range(0x0B80, 0x0C00)
    if unicodedata.category(chr(c)) in ("Mn", "Mc", "Me")
)


def _char_class(chars) -> str:
    return "[" + re.escape("".join(sorted(chars))) + "]"


# Matches a code point outside the range the regular expression handles.
_OUTSIDE_FAST_RANGE = re.compile(r"[^\x00-\u02ff\u0b80-\u0bff\u200c\u200d]")
# The only code point pairs NFC joins in text `_OUTSIDE_FAST_RANGE` does
# not match: they compose to ஔ, ொ, ௌ and ோ.
_COMPOSING_PAIR = re.compile("\u0b92\u0bd7|\u0bc6[\u0bbe\u0bd7]|\u0bc7\u0bbe")
# One letter, as `_segment_slow` clusters it: a consonant with its
# dependent signs, an independent vowel or aytham with any AU length
# mark, or any other character with its combining marks and joiners.
_LETTER = re.compile(
    _char_class(_CONSONANTS) + _char_class(_DEPENDENT_SIGNS) + "*"
    "|" + _char_class(_INDEPENDENT_VOWELS | {_AYTHAM}) + "ௗ*"
    "|." + _char_class(_TAMIL_MARKS | _ZERO_WIDTH_JOINERS) + "*",
    re.DOTALL,
)

def normalize(text: str) -> str:
    """Return the canonical composed (NFC) form of *text*.

    Idempotent.  Rejects strings carrying lone surrogates (the residue of
    a failed byte decode) rather than letting them propagate.

    Text whose code points all lie below U+0300, in the Tamil block or
    among the zero-width joiners holds no surrogate, and NFC changes it
    only where it has one of the four pairs `_COMPOSING_PAIR` matches
    (see the module docstring), so other such text is returned as it is.
    """
    if (
        _OUTSIDE_FAST_RANGE.search(text) is None
        and _COMPOSING_PAIR.search(text) is None
    ):
        return text
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

    Invariant: ``"".join(graphemes) == text`` and *text* is NFC.
    """

    graphemes: tuple[str, ...]
    text: str

    def __len__(self) -> int:
        return len(self.graphemes)

    def __bool__(self) -> bool:
        return bool(self.graphemes)

    def __str__(self) -> str:
        return self.text


def segment(text: str) -> GraphemeWord:
    """Split normalized *text* into orthographic letters.

    A Tamil consonant absorbs following dependent signs (vowel sign,
    pulli, AU length mark); independent vowels and aytham stand alone.
    Any other base character absorbs following combining marks and
    joiners, which is enough for romanized fixtures and incidental
    non-Tamil input.

    Text whose code points all lie below U+0300, in the Tamil block or
    among the zero-width joiners is split by one regular expression;
    other text goes through `_segment_slow`, which gives the same letters
    for every input.
    """
    if _OUTSIDE_FAST_RANGE.search(text) is None:
        return GraphemeWord(tuple(_LETTER.findall(text)), text)
    return _segment_slow(text)


def _segment_slow(text: str) -> GraphemeWord:
    """`segment` one code point at a time, asking ``unicodedata`` about
    each possible mark: the reference the regular expression is tested
    against."""
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
            while j < n and (
                unicodedata.category(text[j]) in ("Mn", "Mc", "Me")
                or text[j] in _ZERO_WIDTH_JOINERS
            ):
                j += 1
        clusters.append(text[i:j])
        i = j
    return GraphemeWord(tuple(clusters), text)


def word(text: str) -> GraphemeWord:
    """Normalize then segment; the usual ingestion path for raw strings."""
    return segment(normalize(text))


def _as_word(text: "GraphemeWord | str") -> GraphemeWord:
    return text if isinstance(text, GraphemeWord) else word(text)


def ends_with(w: GraphemeWord, suffix: GraphemeWord) -> bool:
    """True iff the last ``len(suffix)`` letters of *w* equal *suffix*."""
    k = len(suffix.graphemes)
    if k == 0:
        return True
    if k > len(w.graphemes):
        return False
    return w.graphemes[-k:] == suffix.graphemes


def is_tamil(w: GraphemeWord) -> bool:
    """True if every letter of *w* starts in the Tamil block."""
    return bool(w.graphemes) and all(
        "஀" <= g[0] <= "௿" for g in w.graphemes
    )


def _packaged_text(name: str) -> str:
    """The UTF-8 text of a data file shipped in ``tamilstem/data``, read
    through this module's loader, so from a zip too."""
    path = os.path.join(os.path.dirname(__file__), "data", name)
    return __spec__.loader.get_data(path).decode("utf-8")


def _lines(source):
    """Number from 1 the lines of *source*, a text or a stream of lines.

    A line ends only at ``\\n``, and a leading byte-order mark is dropped.
    Lines are not stripped: a CRLF ending leaves its ``\\r`` on the line.
    """
    lines = iter(source.split("\n") if isinstance(source, str) else source)
    first = next(lines, None)
    if first is not None:
        yield 1, first.removeprefix("\ufeff")
        yield from enumerate(lines, start=2)


def _data_lines(source):
    """`_lines` without the blank lines and ``#`` comments."""
    for lineno, line in _lines(source):
        text = line.lstrip()
        if text and text[0] != "#":
            yield lineno, line
