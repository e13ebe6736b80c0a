"""Letter segmentation and normalization."""

import itertools
import unicodedata

import pytest
from hypothesis import given, settings, strategies as st

from tamilstem.graphemes import (
    _NOT_FAST_NFC,
    normalize,
    segment,
    word,
)

# Hand-segmented reference words: consonant + vowel sign or pulli is one
# letter; independent vowels stand alone.
SEGMENTATION_TABLE = [
    ("மரம்", ("ம", "ர", "ம்")),
    ("படி", ("ப", "டி")),
    ("பெண்", ("பெ", "ண்")),
    ("பெண்கள்", ("பெ", "ண்", "க", "ள்")),
    ("மரங்கள்", ("ம", "ர", "ங்", "க", "ள்")),
    ("படித்தேன்", ("ப", "டி", "த்", "தே", "ன்")),
    ("படிக்கிறேன்", ("ப", "டி", "க்", "கி", "றே", "ன்")),
    ("கொண்டு", ("கொ", "ண்", "டு")),
    ("ஆறு", ("ஆ", "று")),
    ("ஐ", ("ஐ",)),
    ("உக்கு", ("உ", "க்", "கு")),
    ("இடமிருந்து", ("இ", "ட", "மி", "ரு", "ந்", "து")),
    ("யானை", ("யா", "னை")),
    ("ஃது", ("ஃ", "து")),
    ("", ()),
]


@pytest.mark.parametrize("text,expected", SEGMENTATION_TABLE)
def test_segmentation_table(text, expected):
    assert segment(text).graphemes == expected


@pytest.mark.parametrize("text,expected", SEGMENTATION_TABLE)
def test_join_round_trip(text, expected):
    assert "".join(segment(text).graphemes) == text


def test_word_counts():
    assert len(word("மரம்")) == 3
    assert len(word("படி")) == 2
    assert len(word("")) == 0
    assert not word("")
    assert word("படி")


# Decomposed sign sequences that must compose to single code points.
COMPOSITION_TABLE = [
    ("கொ", "கொ"),   # e + aa -> o
    ("கோ", "கோ"),   # E + aa -> O
    ("கௌ", "கௌ"),   # e + au-mark -> au
    ("ஔ", "ஔ"),     # o + au-mark -> Au (independent)
]


@pytest.mark.parametrize("decomposed,composed", COMPOSITION_TABLE)
def test_normalize_composes(decomposed, composed):
    assert normalize(decomposed) == composed
    assert len(normalize(decomposed)) < len(decomposed)


@pytest.mark.parametrize("decomposed,composed", COMPOSITION_TABLE)
def test_word_normalizes_before_segmenting(decomposed, composed):
    assert word("ப" + decomposed).text == "ப" + composed


def test_normalize_rejects_lone_surrogates():
    with pytest.raises(ValueError, match="offset 1"):
        normalize("a\ud800b")


def _surrogate_message(text):
    """The error of a code-point-by-code-point surrogate scan."""
    for i, ch in enumerate(text):
        if "\ud800" <= ch <= "\udfff":
            return f"malformed text: lone surrogate at offset {i}"
    return None


@pytest.mark.parametrize(
    "text",
    [
        "\udc80மரம்",                 # at the start
        "மர\ud800ம்",                 # in the middle
        "\U0001f600க\udfff",          # after an astral character
        "ab\ud83d\ude00",             # a pair spelled as two code points
    ],
)
def test_normalize_names_the_first_surrogate_by_code_point(text):
    with pytest.raises(ValueError) as info:
        normalize(text)
    assert str(info.value) == _surrogate_message(text)


def _normalize_reference(text):
    """The surrogate check, then NFC: `normalize` written out apart from
    it, so a change to it shows."""
    try:
        text.encode("utf-8")
    except UnicodeEncodeError as exc:
        raise ValueError(
            f"malformed text: lone surrogate at offset {exc.start}"
        ) from None
    return unicodedata.normalize("NFC", text)


def _assert_normalizes_like_the_reference(text):
    """`normalize`, and `word` with its one-search path, agree with the
    reference on *text*."""
    try:
        expected = _normalize_reference(text)
    except ValueError as exc:
        for ingest in (normalize, word):
            with pytest.raises(ValueError) as info:
                ingest(text)
            assert str(info.value) == str(exc)
    else:
        assert normalize(text) == expected, ascii(text)
        assert word(text) == segment(expected), ascii(text)


# The code points `word`'s fast path handles.
_FAST_RANGE = tuple(
    map(chr, itertools.chain(range(0x0300), range(0x0B80, 0x0C00), (0x200C, 0x200D)))
)


# The only pairs of code points in the fast range that NFC joins: they
# compose to ஔ, ொ, ௌ and ோ.
_NFC_PAIRS = {
    ("\u0b92", "\u0bd7"),
    ("\u0bc6", "\u0bbe"),
    ("\u0bc6", "\u0bd7"),
    ("\u0bc7", "\u0bbe"),
}


def test_unicodedata_joins_only_four_pairs_in_the_fast_range():
    # What `word` relies on to skip NFC.  A Unicode version that
    # breaks it fails here, not in a stem.
    version = unicodedata.unidata_version
    assert all(unicodedata.is_normalized("NFC", c) for c in _FAST_RANGE), version
    assert [c for c in _FAST_RANGE if unicodedata.combining(c)] == ["\u0bcd"], version
    joined = {
        (a, b)
        for a in _FAST_RANGE
        for b in _FAST_RANGE
        if not unicodedata.is_normalized("NFC", a + b)
    }
    assert joined == _NFC_PAIRS, version


def test_not_fast_nfc_finds_what_its_plain_definition_does():
    # `_NOT_FAST_NFC` finds something exactly where a code point is
    # outside the fast range or the text holds one of the four pairs NFC
    # joins: checked on each code point and each ordered pair of the
    # Tamil block, the joiners, the code points at the edges of the
    # fast range, a byte-order mark, a lone surrogate and Hangul.
    fast = set(_FAST_RANGE)
    alphabet = [chr(c) for c in range(0x0B80, 0x0C00)]
    alphabet += ["\u200c", "\u200d", "\x00", "\u02ff", "\u0300", "\u0b7f"]
    alphabet += ["\u0c00", "\u200b", "\ufeff", "\udcff", "가"]
    for text in [*alphabet, *map("".join, itertools.product(alphabet, repeat=2))]:
        expected = not fast.issuperset(text) or (
            len(text) == 2 and tuple(text) in _NFC_PAIRS
        )
        assert (_NOT_FAST_NFC.search(text) is not None) == expected, ascii(text)


def test_normalize_matches_nfc_on_each_code_point_of_the_fast_range():
    for c in _FAST_RANGE:
        _assert_normalizes_like_the_reference(c)


def test_normalize_matches_nfc_on_every_pair_over_the_tamil_block():
    letters = [chr(c) for c in range(0x0B80, 0x0C00)]
    letters += ["\u200c", "\u200d", "\x00", "\t", " ", "a", "~", "\xe9", "\xff"]
    for a in letters:
        for b in letters:
            _assert_normalizes_like_the_reference(a + b)


def test_segment_absorbs_combining_marks_outside_tamil():
    # Latin base + combining acute stays one unit.
    assert segment("éx").graphemes == ("é", "x")


def test_segment_keeps_zero_width_joiners_attached():
    zwj_text = "அ‍ப"
    assert "".join(segment(zwj_text).graphemes) == zwj_text


def test_grapheme_word_value_semantics():
    assert word("மரம்") == word("மரம்")
    assert str(word("மரம்")) == "மரம்"
    assert word("மரம்") != word("மரங்கள்")


_tamil_text = st.text(
    alphabet=st.characters(min_codepoint=0x0B80, max_codepoint=0x0BFF),
    max_size=12,
)


@settings(max_examples=300, derandomize=True)
@given(_tamil_text)
def test_property_join_inverts_segment(text):
    text = normalize(text)
    assert "".join(segment(text).graphemes) == text


@settings(max_examples=300, derandomize=True)
@given(_tamil_text)
def test_property_resegmenting_clusters_is_stable(text):
    w = word(text)
    for cluster in w.graphemes:
        assert "".join(segment(cluster).graphemes) == cluster
    assert word(w.text) == w


@settings(max_examples=300, derandomize=True)
@given(_tamil_text)
def test_property_tamil_clusters_have_one_base(text):
    for cluster in word(text).graphemes:
        bases = [
            ch
            for ch in cluster
            if unicodedata.category(ch) not in ("Mn", "Mc", "Me")
        ]
        # At most one spacing base per Tamil cluster (the au-mark U+0BD7
        # is Mc).
        assert len(bases) <= 1 or not "\u0b80" <= cluster[0] <= "\u0bff"


# Letters for checking `word` against `segment` of `normalize`, its
# definition: Tamil consonants, signs, vowels and aytham, the anusvara
# U+0B82 and the AU length mark U+0BD7, the joiners, ASCII and a
# newline, plus the first combining mark U+0300, a combining acute, a
# Devanagari vowel sign and an astral letter, which send the text off
# the fast path.
_ORACLE_ALPHABET = (
    "கஙசடணதநபமயரலவழளறன"
    "\u0bbe\u0bbf\u0bc0\u0bc1\u0bc2\u0bc6\u0bc7\u0bc8\u0bca\u0bcb\u0bcc\u0bcd"
    "அஆஇஉஎஐஒஔஃ\u0b82\u0bd7"
    "\u200c\u200d"
    "aZ0 -\t\n"
    "\u0300\u0301\u093f\U0001d400"
)


@settings(max_examples=1000, derandomize=True)
@given(st.text(alphabet=st.sampled_from(_ORACLE_ALPHABET), max_size=16))
def test_property_segment_matches_the_slow_loop(text):
    # `segment` is the slow loop; `word`'s fast path must agree with it.
    assert word(text) == segment(normalize(text)), ascii(text)


def test_segment_matches_the_slow_loop_on_every_short_string():
    letters = (
        "கமழந\u0bbe\u0bbf\u0bc1\u0bc6\u0bc8\u0bca\u0bcc\u0bcd"
        "அஇஉஐஒஃ\u0b82\u0bd7\u200c\u200d"
        "a \t\n\u0300\u0301\u093f\U0001d400"
    )
    assert len(set(letters)) == len(letters) == 30
    for n in range(4):
        for chars in itertools.product(letters, repeat=n):
            text = "".join(chars)
            assert word(text) == segment(normalize(text)), ascii(text)


def test_segment_matches_the_slow_loop_after_each_code_point_of_the_fast_range():
    # Every code point `word`'s regular expression may see, and the
    # combining marks just above U+0300 that it must not, after and
    # before each kind of base, so a mark missing from its classes shows.
    fast_range = itertools.chain(
        range(0x0000, 0x0370), range(0x0B80, 0x0C00), (0x200C, 0x200D)
    )
    for c in map(chr, fast_range):
        for base in ("a", "க", "அ", "\u0b82"):
            for text in (base + c, c + base):
                assert word(text) == segment(normalize(text)), ascii(text)


@settings(max_examples=1000, derandomize=True)
@given(
    st.lists(
        st.sampled_from(_ORACLE_ALPHABET + "\u0bcb\ud800\udcff"),
        max_size=16,
    ).map("".join)
)
def test_property_normalize_matches_nfc(text):
    _assert_normalizes_like_the_reference(text)
