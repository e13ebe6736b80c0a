"""Synthetic inflection tables for Tamil nouns and verbs.

Nouns decline for number (singular/plural) crossed with case endings plus
a vocative; verbs conjugate for tense (past/present/future) and a negative
series, each crossed with person/number/gender endings.  Every generated
surface is the plain concatenation of the root (or its plural/oblique
base) with one suffix, so a correct stemmer recovers the root exactly.

Nouns whose final letter is the bare consonant ``ம்`` ("m-final" nouns
like மரம்) swap that letter for ``ங்கள்`` in the plural and for ``த்``
before the locative ``இல்``; all other nouns take plain ``கள்``.

Each table is described once, in `_TABLES`, as one base and its
endings: the base is the root, or for an m-final noun the root without
its ``ம்``, and every form is the base followed by one ending, such as
``ங்கள்உக்கு``.  Where an m-final noun keeps its ``ம்`` the ending starts
with it (``ம்ஐ``), and ``""`` stands for the base alone.  Both builders
join forms from it, and neither segments a form.  `generate_forms`
(with `build_corpus`) joins letters: a form's letters are the base's
letters followed by the ending's, and its text is the base's text
followed by the ending's; each ending is segmented once, on first use.
``tamilstem generate`` joins only the same texts and builds no letters.
This is exact because every ending starts with a Tamil consonant or
independent vowel.  Such a code point is NFC-stable, has combining
class 0 and is never the second half of a composition, so NFC of base
plus ending is the NFC base plus the ending; and it is no mark or
joiner, so the base's last letter cannot absorb it.  The m-final base
is the root without its last letter, ``ம்``, which starts with a
consonant too, so the base's letters are the root's but the last.
"""

from __future__ import annotations

from functools import lru_cache

from .graphemes import GraphemeWord, _as_word, _data_lines, _packaged_text, word

_M_FINAL = "ம்"
_PLURAL = "கள்"
_M_PLURAL = "ங்கள்"

# Case endings shared by both numbers: accusative, dative, sociative,
# genitive, instrumental.  Locative and ablative depend on the noun type
# and are handled separately below; the vocative closes each number block.
_SHARED_CASES = ("ஐ", "உக்கு", "ஓடு", "உடைய", "ஆல்")
_VOCATIVE = "ஏ"

# Animate-style locative/ablative (attaches to any base).
_LOC_ANIMATE = "இடம்"
_ABL_ANIMATE = "இடமிருந்து"
# Inanimate-style locative/ablative for m-final nouns.
_LOC_PLAIN = "இல்"
_ABL_PLAIN = "இலிருந்து"
_OBLIQUE = "த்"

# Person/number/gender cells in table order: 1sg, 2sg, 3sg-m, 3sg-f,
# 3sg-honorific, 3sg-n, 1pl, 2pl, 3pl, 3pl-n.
_PAST = ("த்தேன்", "த்தாய்", "த்தான்", "த்தாள்", "த்தார்", "த்தது",
         "த்தோம்", "த்தீர்கள்", "த்தார்கள்", "த்தன")
_PRESENT = ("க்கிறேன்", "க்கிறாய்", "க்கிறான்", "க்கிறாள்", "க்கிறார்",
            "க்கிறது", "க்கிறோம்", "க்கிறீர்கள்", "க்கிறார்கள்",
            "க்கின்றன")
_FUTURE = ("ப்பேன்", "ப்பாய்", "ப்பான்", "ப்பாள்", "ப்பார்", "க்கும்",
           "ப்போம்", "ப்பீர்கள்", "ப்பார்கள்", "க்கும்")
_NEGATIVE = ("க்கமாட்டேன்", "க்கமாட்டாய்", "க்கமாட்டான்", "க்கமாட்டாள்",
             "க்கமாட்டார்", "க்காது", "க்கமாட்டோம்", "க்கமாட்டீர்கள்",
             "க்கமாட்டார்கள்", "க்காது", "க்கவில்லை")


# A table is ``(drop, endings)``: every form is one base, the root
# without its final ``ம்`` where *drop* and the root itself otherwise,
# followed by one of *endings*; "" stands for the base alone.
def _declension(m_final: bool) -> tuple[bool, tuple[str, ...]]:
    """The 18-form noun table: each number's base, alone and with each
    shared case ending, the locative, the ablative and the vocative.
    An m-final noun's base drops its ``ம்``: its singular endings start
    with it again, its plural ones swap it for ``ங்கள்``, and its
    singular locative rides on the oblique base (marath-il), not the
    nominative."""
    if m_final:
        singular, oblique, plural = _M_FINAL, _OBLIQUE, _M_PLURAL
        loc, abl = _LOC_PLAIN, _ABL_PLAIN
    else:
        singular, oblique, plural = "", "", _PLURAL
        loc, abl = _LOC_ANIMATE, _ABL_ANIMATE
    endings = []
    for base, loc_base in ((singular, oblique), (plural, plural)):
        endings += [base + ending for ending in ("", *_SHARED_CASES)]
        endings.append(loc_base + loc)
        endings += [base + ending for ending in (abl, _VOCATIVE)]
    return m_final, tuple(endings)


# Each paradigm's table, by paradigm and whether the root is m-final:
# the one description of each table, which `generate_forms` joins as
# letters and `_gold_lines` as text.
_VERB = False, _PAST + _PRESENT + _FUTURE + _NEGATIVE
_TABLES = {
    ("noun", False): _declension(False),
    ("noun", True): _declension(True),
    ("verb", False): _VERB,
    ("verb", True): _VERB,
}
PARADIGMS = ("noun", "verb")


def _table(root: GraphemeWord, paradigm: str) -> tuple[bool, tuple[str, ...]]:
    """*root*'s table under *paradigm*, from `_TABLES`."""
    if len(root) < 2:
        raise ValueError(
            f"root too short: need at least 2 letters, got {root.text!r}"
        )
    if paradigm not in PARADIGMS:
        raise ValueError(f"unknown paradigm: {paradigm!r}")
    return _TABLES[paradigm, root.graphemes[-1] == _M_FINAL]


@lru_cache(maxsize=None)
def _ending(text: str) -> GraphemeWord:
    """The letters of one of the tables' endings, segmented once."""
    return word(text)


def generate_forms(
    root: GraphemeWord | str, paradigm: str
) -> list[tuple[GraphemeWord, GraphemeWord]]:
    """All inflected surfaces of *root*, each paired with the root.

    ``paradigm`` selects the noun declension (18 forms) or the verb
    conjugation (41 table cells; a few cells share a surface).  Roots
    shorter than 2 letters are rejected: nothing that short can be
    recovered once a suffix is attached.  Each form joins the table's
    base, as letters and as text, with one of its endings (exact: see
    the module docstring).
    """
    w = _as_word(root)
    drop, endings = _table(w, paradigm)
    letters, text = w.graphemes, w.text
    if drop:
        letters, text = letters[:-1], text[: -len(_M_FINAL)]
    return [
        (GraphemeWord(letters + tail.graphemes, text + tail.text), w)
        for tail in map(_ending, endings)
    ]


def _gold_lines(root: GraphemeWord, paradigm: str) -> str:
    """The ``surface<TAB>root`` line of each form `generate_forms` builds
    for *root*, joined as text only (exact: see the module docstring):
    each of the table's endings between its base and the line's tail."""
    drop, endings = _table(root, paradigm)
    text = root.text
    base = text[: -len(_M_FINAL)] if drop else text
    tail = f"\t{text}\n"
    return base + (tail + base).join(endings) + tail


def load_roots(text: str) -> list[tuple[GraphemeWord, str]]:
    """Parse a root inventory: ``root<TAB>paradigm`` per line.

    ``#`` starts a comment; blank lines are skipped.  Errors carry the
    offending line number.
    """

    def error(lineno, message, *_):  # `_data_lines` adds the line
        return ValueError(f"line {lineno}: {message}")

    roots = []
    for lineno, line in _data_lines(text, error):
        fields = line.strip().split("\t")
        if len(fields) != 2:
            raise error(
                lineno, f"expected 2 tab-separated fields, got {len(fields)}"
            )
        root, paradigm = fields[0].strip(), fields[1].strip()
        if paradigm not in PARADIGMS:
            raise error(lineno, f"unknown paradigm: {paradigm!r}")
        try:
            roots.append((word(root), paradigm))
        except ValueError as exc:  # a lone surrogate from a failed decode
            raise error(lineno, exc) from None
    return roots


@lru_cache(maxsize=1)
def default_roots() -> tuple[tuple[GraphemeWord, str], ...]:
    """The root inventory shipped with the package."""
    return tuple(load_roots(_packaged_text("default_roots.tsv")))


def build_corpus(
    roots: "list[tuple[GraphemeWord | str, str]] | None" = None,
) -> list[tuple[GraphemeWord, GraphemeWord]]:
    """Concatenated (surface, root) pairs for every root in *roots*.

    Defaults to the shipped inventory.
    """
    if roots is None:
        roots = list(default_roots())
    pairs = []
    for root, paradigm in roots:
        pairs.extend(generate_forms(root, paradigm))
    return pairs
