"""Inflection table generation."""

import io

import pytest
from hypothesis import given, settings, strategies as st

from tamilstem import paradigm
from tamilstem.cli import EX_DATA, EX_OK, main
from tamilstem.graphemes import (
    _CONSONANTS,
    _INDEPENDENT_VOWELS,
    normalize,
    segment,
    word,
)
from tamilstem.paradigm import (
    PARADIGMS,
    build_corpus,
    default_roots,
    generate_forms,
    load_roots,
)


def _is_m_final(root):
    """Whether the noun *root* ends in the bare consonant ம்."""
    return root.graphemes[-1:] == ("ம்",)


def _surfaces(root, paradigm):
    return [s.text for s, _ in generate_forms(root, paradigm)]


def test_noun_layout():
    pairs = generate_forms("பெண்", "noun")
    assert len(pairs) == 18
    assert all(stem.text == "பெண்" for _, stem in pairs)
    surfaces = [s.text for s, _ in pairs]
    assert "பெண்" in surfaces                 # nominative singular
    assert "பெண்ஐ" in surfaces                # accusative
    assert "பெண்கள்" in surfaces              # plural
    assert "பெண்கள்உக்கு" in surfaces         # plural dative
    assert "பெண்கள்ஏ" in surfaces             # plural vocative
    assert "பெண்இடமிருந்து" in surfaces       # ablative
    assert len(set(surfaces)) == 18


def test_m_final_noun_alternations():
    surfaces = _surfaces("மரம்", "noun")
    assert "மரங்கள்" in surfaces              # plural swaps ம் for ங்கள்
    assert "மரத்இல்" in surfaces              # oblique locative
    assert "மரங்கள்இல்" in surfaces           # plural locative
    assert "மரம்இலிருந்து" in surfaces        # ablative on the nominative
    assert "மரம்கள்" not in surfaces


def test_verb_layout():
    pairs = generate_forms("படி", "verb")
    assert len(pairs) == 41
    assert all(stem.text == "படி" for _, stem in pairs)
    surfaces = [s.text for s, _ in pairs]
    for expected in ("படித்தேன்", "படிக்கிறேன்", "படிப்பேன்",
                     "படிக்கும்", "படிக்கமாட்டேன்", "படிக்காது",
                     "படிக்கவில்லை", "படித்தீர்கள்"):
        assert expected in surfaces
    # க்கும் and க்காது each fill two table cells.
    assert len(set(surfaces)) == 39


def test_accepts_pre_segmented_roots():
    assert generate_forms(word("படி"), "verb") == generate_forms("படி", "verb")


def test_short_root_rejected():
    with pytest.raises(ValueError, match="too short"):
        generate_forms("ப", "noun")


def test_unknown_paradigm_rejected():
    with pytest.raises(ValueError, match="unknown paradigm"):
        generate_forms("படி", "adverb")


def test_load_roots():
    roots = load_roots("# comment\nபடி\tverb\n\nமரம்\tnoun\n")
    assert [(r.text, p) for r, p in roots] == [("படி", "verb"), ("மரம்", "noun")]
    assert load_roots("\ufeffபடி\tverb\n") == roots[:1]
    assert load_roots("\ufeffபடி\tverb\r\n# x\r\n") == roots[:1]


@pytest.mark.parametrize(
    "text,fragment",
    [
        ("படி\n", "line 1: expected 2"),
        ("படி\tverb\tx\n", "line 1: expected 2"),
        ("# ok\nபடி\tadjective\n", "line 2: unknown paradigm"),
    ],
)
def test_load_roots_errors(text, fragment):
    with pytest.raises(ValueError, match=fragment):
        load_roots(text)


def test_default_roots_inventory():
    roots = default_roots()
    nouns = [r for r, p in roots if p == "noun"]
    verbs = [r for r, p in roots if p == "verb"]
    assert len(nouns) >= 10
    assert len(verbs) >= 10
    assert len(roots) >= 20
    assert any(_is_m_final(r) for r in nouns)
    assert all(p in PARADIGMS for _, p in roots)
    assert all(len(r) >= 2 for r, _ in roots)


def test_build_corpus_shape():
    pairs = build_corpus()
    assert len(pairs) >= 800
    roots = {stem.text for _, stem in pairs}
    assert roots == {r.text for r, _ in default_roots()}
    # Surfaces concatenate the stem (or its plural/oblique base) cleanly:
    # joining the clusters back always reproduces the surface text.
    for surface, _ in pairs:
        assert "".join(surface.graphemes) == surface.text


def test_build_corpus_accepts_custom_roots():
    pairs = build_corpus([("படி", "verb")])
    assert pairs == generate_forms("படி", "verb")


# Every ending the tables attach to a base: the pieces, and the whole
# endings in `_TABLES` that the builders join, such as ம்ஐ and
# ங்கள்உக்கு ("" stands for the base alone, which joins nothing).
_ENDINGS = sorted({
    *paradigm._SHARED_CASES, paradigm._VOCATIVE,
    paradigm._LOC_ANIMATE, paradigm._ABL_ANIMATE,
    paradigm._LOC_PLAIN, paradigm._ABL_PLAIN, paradigm._OBLIQUE,
    paradigm._PLURAL, paradigm._M_PLURAL,
    *paradigm._PAST, *paradigm._PRESENT, *paradigm._FUTURE,
    *paradigm._NEGATIVE,
    *(e for _, endings in paradigm._TABLES.values() for e in endings if e),
})


def _text_forms(root, kind):
    """The surfaces as text concatenations, each then run through
    `word`: how forms were built before they were joined letter by
    letter, kept here as the oracle."""
    w = word(root)
    if len(w) < 2:
        raise ValueError(
            f"root too short: need at least 2 letters, got {w.text!r}"
        )

    def block(base, loc, abl):
        return [base] + [
            base + e for e in (*paradigm._SHARED_CASES, loc, abl, paradigm._VOCATIVE)
        ]

    if kind == "verb":
        series = (paradigm._PAST, paradigm._PRESENT, paradigm._FUTURE,
                  paradigm._NEGATIVE)
        texts = [w.text + e for endings in series for e in endings]
    elif _is_m_final(w):
        stem = "".join(w.graphemes[:-1])
        plural = word(stem + "ங்கள்").text
        loc, abl = paradigm._LOC_PLAIN, paradigm._ABL_PLAIN
        texts = block(w.text, loc, abl)
        texts[6] = stem + paradigm._OBLIQUE + loc
        texts += block(plural, loc, abl)
    else:
        plural = word(w.text + "கள்").text
        loc, abl = paradigm._LOC_ANIMATE, paradigm._ABL_ANIMATE
        texts = block(w.text, loc, abl) + block(plural, loc, abl)
    return [(word(s), w) for s in texts]


def test_every_ending_starts_with_a_consonant_or_independent_vowel():
    for ending in _ENDINGS:
        assert ending[0] in _CONSONANTS | _INDEPENDENT_VOWELS, ending


def test_joining_an_ending_after_any_code_point_of_the_tamil_block():
    # The invariant the paradigm relies on: nothing before an ending
    # composes with it under NFC or absorbs any of its letters.
    chars = [chr(c) for c in range(0x0B80, 0x0C00)] + ["\u200c", "\u200d"]
    for ending in _ENDINGS:
        tail = segment(ending).graphemes
        for c in chars:
            assert normalize(c + ending) == normalize(c) + ending, ascii(c + ending)
            letters = segment(normalize(c + ending)).graphemes
            assert letters[len(letters) - len(tail):] == tail, ascii(c + ending)
            assert letters == segment(normalize(c)).graphemes + tail


# Pieces of random roots: Tamil letters and signs, the m-final letter,
# Latin, combining marks (one above U+0300 sends text off the fast
# path), the joiners, decomposed ொ and ஔ, and a lone surrogate.
_ROOT_PIECES = [
    *"கஙசடணதநபமயரலவழளறன",
    *"\u0bbe\u0bbf\u0bc0\u0bc1\u0bc6\u0bc7\u0bc8\u0bcd\u0bd7",
    *"அஆஇஉஎஐஒஓஃ\u0b82",
    "ம்", "a", "Z", "e\u0301", "\u0300", "\u0327",
    "\u200c", "\u200d", "\u0bc6\u0bbe", "\u0b92\u0bd7", "\udcff",
]


@settings(max_examples=500, derandomize=True)
@given(
    st.lists(st.sampled_from(_ROOT_PIECES), max_size=8).map("".join),
    st.sampled_from(["", "ம்"]),
    st.sampled_from(PARADIGMS),
)
def test_property_joined_forms_match_the_text_oracle(root, m_final, kind):
    root += m_final
    try:
        expected = _text_forms(root, kind)
    except ValueError as exc:
        with pytest.raises(ValueError) as info:
            generate_forms(root, kind)
        assert str(info.value) == str(exc)
        return
    assert generate_forms(root, kind) == expected
    assert generate_forms(word(root), kind) == expected


def _generate(kind, text):
    """``tamilstem generate --paradigm kind`` on stdin *text*, in
    process: its exit code, stdout and stderr."""
    stdout, stderr = io.StringIO(), io.StringIO()
    argv = ["generate", "--paradigm", kind]
    code = main(argv, io.StringIO(text), stdout, stderr)
    return code, stdout.getvalue(), stderr.getvalue()


def _gold_text(pairs):
    return "".join(f"{s.text}\t{r.text}\n" for s, r in pairs)


@settings(max_examples=300, derandomize=True)
@given(
    st.lists(st.sampled_from(_ROOT_PIECES), min_size=1, max_size=8).map(
        "".join
    ),
    st.sampled_from(["", "ம்"]),
    st.sampled_from(PARADIGMS),
)
def test_property_cli_generate_joins_the_text_oracle(root, m_final, kind):
    # CLI `generate` joins text from the table `generate_forms` joins as
    # letters.  Its lines are those of the text oracle, and a root that
    # is too short or undecodable fails at its own line number, after
    # the lines of the root before it.
    root += m_final
    first = _gold_text(_text_forms("படி", kind))
    try:
        forms = _text_forms(root, kind)
    except ValueError as exc:
        message = str(exc)
        if "surrogate" in message:  # the escaped byte 0xff of "\udcff"
            message = "not valid UTF-8 (invalid start byte)"
        error = f"tamilstem: error: <stdin>: line 3: {message}\n"
        expected = (EX_DATA, first, error)
    else:
        assert _gold_text(generate_forms(root, kind)) == _gold_text(forms)
        expected = (EX_OK, first + _gold_text(forms), "")
    assert _generate(kind, f"படி\n# a root\n{root}\n") == expected
