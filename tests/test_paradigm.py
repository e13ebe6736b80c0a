"""Inflection table generation."""

import pytest

from tamilstem.graphemes import word
from tamilstem.paradigm import (
    PARADIGMS,
    build_corpus,
    default_roots,
    generate_forms,
    is_m_final,
    load_roots,
    plural_base,
)


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


def test_plural_base_helper():
    assert plural_base("மரம்").text == "மரங்கள்"
    assert plural_base("பெண்").text == "பெண்கள்"
    assert is_m_final("மரம்")
    assert not is_m_final("பெண்")


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
    assert any(is_m_final(r) for r in nouns)
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
