"""End-to-end acceptance checks.

Each test prints one PASS/FAIL summary line (bypassing capture) and
fails loudly if its property does not hold within the stated budget:

1. accuracy arithmetic renders the reference quadruples exactly (< 1 s)
2. paradigm round-trip over the shipped roots is perfect (< 5 s)
3. light scores at least as high as strip on the bundled gold set,
   and strip scores >= 85%; on the confusable-root slice, scored and
   reported apart from it, light scores strictly above strip
4. both engines are idempotent over a 10,000-word fuzz corpus
5. strip's first applied rule, and the rule each one-step walk applies
   within its classes, is always the longest applicable one, against
   brute-force search over an exhaustive bounded universe
6. the one text walk `compare` runs for both engines gives each engine's
   stem, for four rule sets, over that universe, the fuzz corpus and
   words where a step must re-segment
7. the walk over a word's text gives the letter walk's stem under
   every pair of class masks, for three rule sets, over that universe,
   the fuzz corpus and the bundled gold surfaces
8. `stem` without `--trace` writes exactly the non-`#` lines of
   `stem --trace`, and those are each engine's stems, for three rule
   sets over the bundled gold surfaces and the fuzz corpus
9. joining segmented letters reproduces the text over a 1,000+-word
   fixture
10. comparison reports have the right shape, CSV carries the counts
   verbatim, and averages match exact rational arithmetic to within 1e-12
11. light stems 10,000 words in under a second, and so does the CLI
12. every CLI surface writes pinned bytes: one SHA-256 per group of
   runs (``stem`` under the built-in rules and under user rule files,
   ``eval``, ``compare``, ``generate``, ``rules-validate`` and the error
   paths) over each run's argv, exit code, stdout and stderr
13. under the built-in rules, CLI ``stem`` (light traced, strip),
   ``compare --format csv`` and ``generate`` give what the independent
   ``benchmarks/reference.py`` gives, over the bundled gold, the
   universe of 5 and the confusable-root slice
14. paper claim 1's direction: light never removes more letters than
   strip, over those word lists and Hypothesis words
"""

import csv
import hashlib
import importlib.util
import io
import itertools
import platform
import random
import sys
import time
import unicodedata
import warnings
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import tamilstem as ts
from tamilstem import cli
from tamilstem.graphemes import _NOT_FAST_NFC
from tamilstem.rules import _class_mask, _resegments
from tamilstem.stemmers import _LIGHT, _STRIP, _both, _walk, _walk_text
from test_cli import _MIXED_TOKENS

FUZZ_SEED = 987654321

# Class sets for walks of one step: a first mask, then 0.
_ONE_STEP_CLASSES = (
    {ts.SuffixClass.PLURAL},
    {ts.SuffixClass.ADJECTIVAL_PARTICIPLE},
    {
        ts.SuffixClass.TENSE,
        ts.SuffixClass.NEGATIVE_COMPOUND,
        ts.SuffixClass.PERSON_NUMBER_GENDER,
    },
)
# The class masks of both engines' walks, and of one-step walks.
_MASKS = (
    _STRIP, _LIGHT, *((_class_mask(c), 0) for c in _ONE_STEP_CLASSES)
)

_CONSONANTS = [
    chr(c) for c in range(0x0B95, 0x0BBA)
    if unicodedata.category(chr(c)) == "Lo"
]
_SIGNS = [
    chr(c) for c in range(0x0BBE, 0x0BCE)
    if unicodedata.category(chr(c)) in ("Mn", "Mc")
]
_INDEPENDENT = [
    chr(c) for c in range(0x0B85, 0x0B95)
    if unicodedata.category(chr(c)) == "Lo"
]


def _report(capsys, ok: bool, label: str):
    with capsys.disabled():
        print(f"{'PASS' if ok else 'FAIL'}: {label}")
    assert ok, label


def _random_cluster(rng):
    base = rng.choice(_CONSONANTS)
    return base + rng.choice(_SIGNS) if rng.random() < 0.75 else base


def _random_word(rng):
    n = rng.randint(2, 9)
    first = (
        rng.choice(_INDEPENDENT)
        if rng.random() < 0.25
        else _random_cluster(rng)
    )
    return ts.word(first + "".join(_random_cluster(rng) for _ in range(n - 1)))


def _mutate(rng, w):
    letters = list(w.graphemes)
    if rng.random() < 0.5 and len(letters) >= 2:
        i = rng.randrange(len(letters) - 1)
        letters[i], letters[i + 1] = letters[i + 1], letters[i]
    else:
        del letters[rng.randrange(len(letters))]
    return ts.word("".join(letters))


@pytest.fixture(scope="module")
def fuzz_corpus():
    rng = random.Random(FUZZ_SEED)
    surfaces = [s for s, _ in ts.build_corpus()]
    corpus = [_random_word(rng) for _ in range(5000)]
    corpus += [_mutate(rng, rng.choice(surfaces)) for _ in range(5000)]
    assert len(corpus) == 10000
    assert all(w.graphemes for w in corpus)
    return corpus


def test_accuracy_rendering_is_exact(capsys):
    start = time.perf_counter()
    quads = [
        (30, 37, Fraction(3000, 37), "81.0"),
        (101, 118, Fraction(10100, 118), "85.5"),
        (152, 182, Fraction(15200, 182), "83.5"),
        (200, 237, Fraction(20000, 237), "84.3"),
    ]
    problems = []
    for n_correct, n_unique, exact, display in quads:
        value = ts.accuracy(n_correct, n_unique)
        if value != exact:
            problems.append(f"{n_correct}/{n_unique} != {exact}")
        if ts.format_accuracy(value) != display:
            problems.append(
                f"{n_correct}/{n_unique} renders "
                f"{ts.format_accuracy(value)!r}, want {display!r}"
            )
    elapsed = time.perf_counter() - start
    if elapsed >= 1.0:
        problems.append(f"too slow: {elapsed:.2f}s")
    _report(
        capsys,
        not problems,
        f"accuracy arithmetic and truncation exact on 4 reference "
        f"quadruples ({elapsed:.3f}s)" if not problems else "; ".join(problems),
    )


def test_paradigm_round_trip_is_perfect(capsys):
    start = time.perf_counter()
    problems = []
    roots = ts.default_roots()
    nouns = [r for r, p in roots if p == "noun"]
    verbs = [r for r, p in roots if p == "verb"]
    if len(roots) < 20:
        problems.append(f"only {len(roots)} roots")
    if len(nouns) < 10 or not any(
        r.graphemes[-1] == "ம்" for r in nouns
    ):
        problems.append("need >= 10 nouns including an m-final one")
    if len(verbs) < 10:
        problems.append(f"only {len(verbs)} verbs")

    pairs = ts.build_corpus()
    unique_pairs = {(s.text, r.text) for s, r in pairs}
    if len(unique_pairs) < 800:
        problems.append(f"only {len(unique_pairs)} unique pairs")

    rules = ts.builtin_rules()
    misses = [
        (s.text, r.text)
        for s, r in pairs
        if ts.light_stem(s, rules).stem.text != r.text
    ]
    if misses:
        problems.append(f"{len(misses)} misses, first: {misses[:3]}")
    elapsed = time.perf_counter() - start
    if elapsed >= 5.0:
        problems.append(f"too slow: {elapsed:.2f}s")
    _report(
        capsys,
        not problems,
        f"paradigm round-trip 100% over {len(unique_pairs)} unique pairs "
        f"from {len(roots)} roots ({elapsed:.2f}s)"
        if not problems
        else "; ".join(problems),
    )


def test_light_scores_at_least_strip_on_bundled_gold(capsys):
    problems = []
    extras = ts.extra_gold()
    if len(extras) < 50:
        problems.append(f"only {len(extras)} hand-added entries")
    lookup = {e.surface.text: e.expected_stem.text for e in extras}
    if lookup.get("ஓடிய") != "ஓடு":
        problems.append("missing participle substitution example")
    if lookup.get("மரங்கள்") != "மரம்":
        problems.append("missing plural alternation example")

    gold = list(ts.bundled_gold())
    n_unique, n_strip = ts.evaluate(ts.strip_stem, gold)
    _, n_light = ts.evaluate(ts.light_stem, gold)
    acc_strip = ts.accuracy(n_strip, n_unique)
    acc_light = ts.accuracy(n_light, n_unique)
    if acc_light < acc_strip:
        problems.append(f"light {acc_light} < strip {acc_strip}")
    if acc_strip < 85:
        problems.append(f"strip accuracy {float(acc_strip):.1f} < 85")
    _report(
        capsys,
        not problems,
        f"bundled gold ({n_unique} unique): light "
        f"{ts.format_accuracy(acc_light)}% >= strip "
        f"{ts.format_accuracy(acc_strip)}% >= 85%"
        if not problems
        else "; ".join(problems),
    )


def _confusable_slice():
    """The confusable-root slice, where the engines differ: its roots and
    its gold entries.  Each root is பட plus a built-in rule's pattern, so
    its ending looks like a suffix, and both paradigms inflect it."""
    roots = ["பட" + rule.pattern.text for rule in ts.builtin_rules().rules]
    gold = [
        ts.GoldEntry(surface, stem)
        for root in roots
        for paradigm in ts.PARADIGMS
        for surface, stem in ts.generate_forms(root, paradigm)
    ]
    return roots, gold


def test_light_beats_strip_on_confusable_roots(capsys):
    # Paper claim 1 on the confusable-root slice.  The slice is
    # adversarial to strip by construction, so it is never averaged with
    # the bundled gold.
    gold = _confusable_slice()[1]
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", ts.GoldConflictWarning)
        (row,) = ts.compare(gold, [len(gold)]).rows
    conflicts = [
        str(w.message).split(": ", 1)[1].split(", ")
        for w in caught
        if w.category is ts.GoldConflictWarning
    ]
    ok = (
        row.n_correct_light > row.n_correct_strip
        and [len(surfaces) for surfaces in conflicts] == [36]
    )
    _report(
        capsys,
        ok,
        f"confusable-root slice ({len(gold)} entries, {row.n_unique} "
        f"unique, {sum(map(len, conflicts))} conflicting): light "
        f"{row.n_correct_light} ({ts.format_accuracy(row.acc_light)}%) > "
        f"strip {row.n_correct_strip} ({ts.format_accuracy(row.acc_strip)}%)",
    )


def test_both_engines_idempotent_on_fuzz_corpus(capsys, fuzz_corpus):
    rules = ts.builtin_rules()
    violations = []
    for w in fuzz_corpus:
        for engine in (ts.strip_stem, ts.light_stem):
            once = engine(w, rules).stem
            twice = engine(once, rules).stem
            if once.text != twice.text:
                violations.append(
                    (engine.__name__, w.text, once.text, twice.text)
                )
    _report(
        capsys,
        not violations,
        f"idempotence holds for both engines over "
        f"{len(fuzz_corpus)} fuzz words (seed {FUZZ_SEED})"
        if not violations
        else f"{len(violations)} violations, first: {violations[:3]}",
    )


# A 30-rule subset mixing short, long, and overlapping patterns.
_ORACLE_SUBSET = frozenset(
    [
        ("Plural", "கள்"), ("Plural", "ங்கள்"),
        ("Case", "ஐ"), ("Case", "உக்கு"), ("Case", "ஓடு"),
        ("Case", "உடைய"), ("Case", "ஆல்"), ("Case", "இடம்"),
        ("Case", "இடமிருந்து"), ("Case", "இல்"), ("Case", "இலிருந்து"),
        ("Case", "த்இல்"),
        ("Vocative", "ஏ"),
        ("Tense", "த்தேன்"), ("Tense", "த்தன"), ("Tense", "க்கிறேன்"),
        ("Tense", "க்கின்றன"), ("Tense", "க்கும்"), ("Tense", "கும்"),
        ("Tense", "டும்"), ("Tense", "தும்"), ("Tense", "கின்ற"),
        ("Tense", "க்கின்ற"),
        ("NegativeCompound", "க்கமாட்டேன்"), ("NegativeCompound", "க்காது"),
        ("NegativeCompound", "க்கவில்லை"),
        ("AdjectivalParticiple", "கிய"), ("AdjectivalParticiple", "டிய"),
        ("AdjectivalParticiple", "திய"), ("AdjectivalParticiple", "றிய"),
    ]
)


def _oracle_universe(subset):
    """Every word up to 3 letters over the patterns' letter alphabet,
    plus every stem+suffix and stem+suffix+suffix splice up to 8."""
    alphabet = sorted(
        {g for rule in subset.rules for g in rule.pattern.graphemes}
        | {"ப", "ம"}
    )
    words = []
    for n in (1, 2, 3):
        for combo in itertools.product(alphabet, repeat=n):
            words.append(ts.word("".join(combo)))
    patterns = [rule.pattern for rule in subset.rules]
    for p in patterns:
        words.append(ts.word("ப" + p.text))
        words.append(ts.word("பம" + p.text))
    for p, q in itertools.product(patterns, repeat=2):
        if 2 + len(p) + len(q) <= 8:
            words.append(ts.word("பம" + p.text + q.text))
    assert all(len(w) <= 8 for w in words)
    return words


def _oracle_rules():
    """The built-in rules of `_ORACLE_SUBSET`, as their own rule set."""
    picked = [
        r
        for r in ts.builtin_rules().rules
        if (r.klass.value, r.pattern.text) in _ORACLE_SUBSET
    ]
    assert len(picked) == 30
    lines = "\n".join(
        "\t".join(
            (
                r.klass.value,
                r.pattern.text,
                r.replacement.text,
                str(r.min_stem),
                ",".join(sorted(c.value for c in r.next_classes)),
            )
        )
        for r in picked
    )
    return ts.parse_rules(lines + "\n")


def test_strip_first_rule_is_exhaustive_longest_match(capsys):
    subset = _oracle_rules()
    universe = _oracle_universe(subset)

    def brute_force_best(w, classes=ts.ALL_CLASSES):
        applicable = [
            r
            for r in subset.rules
            if r.klass in classes
            and w.graphemes[len(w) - len(r.pattern):] == r.pattern.graphemes
            and len(w) - len(r.pattern) + len(r.replacement) >= r.min_stem
        ]
        if not applicable:
            return None
        return min(applicable, key=lambda r: (-len(r.pattern), r.order))

    violations = []
    for w in universe:
        expected = brute_force_best(w)
        trace = ts.strip_stem(w, subset).trace
        got = trace[0].rule if trace else None
        if got is not expected:
            violations.append((w.text, expected, got))
        # A one-step walk applies the first rule within its classes.
        for classes in _ONE_STEP_CLASSES:
            best = brute_force_best(w, classes)
            stem = w if best is None else ts.apply_rule(w, best)
            if _walk(subset, w, (_class_mask(classes), 0)) != stem:
                violations.append((classes, w.text, stem.text))
    _report(
        capsys,
        not violations,
        f"longest-match agrees with brute force on {len(universe)} words "
        f"x 30 rules, for strip_stem and 3 one-step walks"
        if not violations
        else f"{len(violations)} violations, first: {violations[:3]}",
    )


# A user rule set with a merging replacement: `லம்` gives way to the
# vowel sign `ா`, which joins the letter before it (`rules._merges`).
_MERGING_RULES = (
    "Case\tலம்\tா\t2\tPlural\n"
    "Case\tஉக்கு\t\t1\tPlural\n"
    "Plural\tங்கள்\tம்\t1\t\n"
)
_MERGING_WORDS = ["படலம்", "படலங்கள்", "படலம்உக்கு", "கெலம்", "மரங்கள்உக்கு"]
# The Hangul trailing consonant U+11A8 is a letter of its own, yet NFC
# joins it to the kept syllable 가 into 각, which the second rule strips
# (as in tests/test_rules.py).
_NFC_JOINING_RULES = "Case\txy\t\u11a8\t1\tCase\nCase\t각\t\t1\t\n"


def test_one_walk_for_both_engines_matches_two(capsys, fuzz_corpus):
    words = _oracle_universe(_oracle_rules()) + fuzz_corpus
    # `z가xy각` is where the engines part under the Hangul rules.
    words += map(ts.word, [*_MERGING_WORDS, "z가xy", "z각", "z가xy각"])
    violations = []
    parted = {}
    handed_over = 0
    for name, rules in (
        ("built-in", ts.builtin_rules()),
        ("oracle subset", _oracle_rules()),
        ("merging", ts.parse_rules(_MERGING_RULES)),
        ("NFC-joining", ts.parse_rules(_NFC_JOINING_RULES)),
    ):
        parted[name] = 0
        for w in words:
            strip, light = _both(rules, w.text)
            parted[name] += strip != light
            expected = ts.strip_stem(w, rules), ts.light_stem(w, rules)
            if (strip, light) != tuple(result.stem.text for result in expected):
                violations.append(f"{name}: {w.text}")
            # The text walk hands a word it walks over to the letter walk
            # at a step that must re-segment.
            handed_over += _NOT_FAST_NFC.search(w.text) is None and any(
                _resegments(step.rule.replacement.text)
                for result in expected
                for step in result.trace
            )
    # Every rule set has words where the engines part, so the second
    # walk is checked too.
    ok = not violations and all(parted.values()) and handed_over > 0
    _report(
        capsys,
        ok,
        f"one strip+light walk matches both engines on {len(words)} "
        f"words (oracle universe + fuzz corpus + rule-set words); engines "
        "part on "
        + ", ".join(f"{n} {name}" for name, n in parted.items())
        + f"; {handed_over} hand-overs"
        if ok
        else f"{len(violations)} violations, first: {violations[:3]}; "
        f"parted {parted}; {handed_over} hand-overs",
    )


def test_text_only_no_match_check_is_sound(capsys, fuzz_corpus):
    """`stem`'s text walk, whose first probe is its "no rule matches"
    check, gives `_walk`'s stem wherever `_NOT_FAST_NFC` finds nothing."""
    rule_sets = {
        "built-in": ts.builtin_rules(),
        "oracle subset": _oracle_rules(),
        "merging": ts.parse_rules(_MERGING_RULES),
    }
    texts = sorted(
        {w.text for w in _oracle_universe(_oracle_rules()) + fuzz_corpus}
        | {e.surface.text for e in ts.bundled_gold()}
        | set(_MERGING_WORDS)
    )
    texts = [t for t in texts if _NOT_FAST_NFC.search(t) is None]
    masks = _MASKS
    problems = []
    stemmed = dict.fromkeys(rule_sets, 0)
    handed_over = 0
    for name, rules in rule_sets.items():
        for text in texts:
            for pair in masks:
                steps = []
                expected = _walk(rules, text, pair, steps).text
                if _walk_text(rules, text, pair) != expected:
                    problems.append(f"{name}: {pair} {text!r}")
                stemmed[name] += bool(steps)
                handed_over += any(
                    _resegments(step.rule.replacement.text) for step in steps
                )
    # Every rule set stems some words, and the merging rule hands over.
    problems += [f"{name}: no word stemmed" for name, n in stemmed.items() if not n]
    if not handed_over:
        problems.append("merging: the text walk never handed over")
    cases = len(texts) * len(masks) * len(rule_sets)
    _report(
        capsys,
        not problems,
        f"text walk = letter walk in {cases} cases ({len(texts)} words x "
        f"{len(masks)} mask pairs x {len(rule_sets)} rule sets); stemmed "
        + ", ".join(f"{n} {name}" for name, n in stemmed.items())
        + f"; {handed_over} hand-overs"
        if not problems
        else f"{len(problems)} violations, first: {problems[:3]}",
    )


@pytest.fixture(scope="module")
def stem_rule_sets(tmp_path_factory):
    """name -> (rules, the ``stem`` arguments that select them)."""
    folder = tmp_path_factory.mktemp("rules")
    sets = {"built-in": (ts.builtin_rules(), [])}
    for name, text in [
        ("oracle subset", ts.render_rules(_oracle_rules())),
        ("merging", _MERGING_RULES),
    ]:
        path = folder / f"{name.replace(' ', '-')}.tsv"
        path.write_text(text, encoding="utf-8")
        sets[name] = (ts.parse_rules(text), ["--rules", str(path)])
    return sets


def _run_stem(argv, text):
    stdout, stderr = io.StringIO(), io.StringIO()
    code = cli.main(argv, io.StringIO(text), stdout, stderr)
    return code, stdout.getvalue(), stderr.getvalue()


def _plain_stem_problems(rules, flags, tokens):
    """How ``stem`` without ``--trace`` fails to write the non-``#``
    lines of ``stem --trace``, or those fail to match each engine's
    stem, on *tokens*, one per line; and the traced output per engine."""
    text = "".join(t + "\n" for t in tokens)
    problems, traced_out = [], {}
    for algo, engine in ts.ENGINES.items():
        argv = ["stem", "--algo", algo, *flags]
        plain = _run_stem(argv, text)
        code, traced, err = _run_stem(argv + ["--trace"], text)
        traced_out[algo] = traced
        untraced = "\n".join(
            line for line in traced.split("\n") if not line.startswith("#")
        )
        expected = "".join(f"{t}\t{engine(t, rules).stem.text}\n" for t in tokens)
        if plain != (cli.EX_OK, expected, ""):
            problems.append(f"{algo}: plain stem differs from the engine")
        if (code, untraced, err) != (cli.EX_OK, expected, ""):
            problems.append(f"{algo}: traced stem differs from the engine")
    return problems, traced_out


def test_plain_stem_is_traced_stem_without_its_trace(
    capsys, fuzz_corpus, stem_rule_sets
):
    tokens = [e.surface.text for e in ts.bundled_gold()]
    tokens += [w.text for w in fuzz_corpus] + _MERGING_WORDS
    problems = []
    for name, (rules, flags) in stem_rule_sets.items():
        found, traced = _plain_stem_problems(rules, flags, tokens)
        problems += [f"{name}: {p}" for p in found]
        if name == "merging" and "# Case\tலம்\tா\t" not in traced["light"]:
            problems.append("merging: the merging rule never applied")
    _report(
        capsys,
        not problems,
        f"plain stem = traced stem minus '#' lines = engine stem, on "
        f"{len(tokens)} words x {len(stem_rule_sets)} rule sets x 2 engines"
        if not problems
        else "; ".join(problems),
    )


# Tokens as ``stem`` reads them: Tamil (`படலங்கள்` is where light
# and strip part under `_MERGING_RULES`), non-NFC spellings (`ெ` + `ா`
# composes to `ொ`), joiners, a combining acute, Latin and any tab-free
# ASCII.
_TOKEN_PIECES = [
    "க", "ட", "ப", "ம", "ல", "ங்கள்", "உக்கு", "லம்", "த்", "இல்",
    "படலங்கள்", "ெ", "ா", "ௗ", "ொ", "்", "ி", "\u200d", "\u200c",
    "\u0301", "e", "s", "ing", "é", " ",
]
_ASCII = st.characters(min_codepoint=0, max_codepoint=127,
                       blacklist_characters="\t\n")
_TOKENS = st.lists(
    st.one_of(
        st.lists(st.sampled_from(_TOKEN_PIECES), min_size=1, max_size=8)
        .map("".join),
        st.text(_ASCII, min_size=1, max_size=10),
        st.text(
            st.characters(blacklist_categories=("Cs",),
                          blacklist_characters="\t\n"),
            min_size=1, max_size=6,
        ),
    ).map(str.strip).filter(lambda t: t and not t.startswith("#")),
    min_size=1, max_size=30,
)


@settings(max_examples=150, derandomize=True, deadline=None)
@given(tokens=_TOKENS)
def test_plain_stem_agrees_with_traced_stem_on_any_tokens(
    stem_rule_sets, tokens
):
    for name, (rules, flags) in stem_rule_sets.items():
        problems, _ = _plain_stem_problems(rules, flags, tokens)
        assert not problems, (name, problems, tokens)


def _lines(items) -> str:
    return "".join(f"{item}\n" for item in items)


def _gold_text(entries) -> str:
    return "".join(f"{e.surface.text}\t{e.expected_stem.text}\n" for e in entries)


@pytest.fixture(scope="module")
def word_lists(fuzz_corpus):
    """The word lists the CLI gate, the reference check and the claim-1
    property read, by name."""
    return {
        "bundled gold": [e.surface.text for e in ts.bundled_gold()],
        "fuzz corpus": [w.text for w in fuzz_corpus],
        "oracle universe": [w.text for w in _oracle_universe(_oracle_rules())],
        "slice": [e.surface.text for e in _confusable_slice()[1]],
    }


# The files the gated runs name, written to the folder the runs start
# in, so that no absolute path reaches a message: user rule files, the
# defective rule files of tests/test_cli.py and gold files.
def _gate_files() -> "dict[str, bytes]":
    gold = ts.bundled_gold()
    texts = {
        "oracle-subset.tsv": ts.render_rules(_oracle_rules()),
        "merging.tsv": _MERGING_RULES,
        "hangul.tsv": _NFC_JOINING_RULES,
        "empty.tsv": "",
        "conflict.tsv": "Plural\tகள்\t\t2\t\nPlural\tகள்\t\t2\t\n",
        "malformed.tsv": "nonsense\n",
        "unknown-class.tsv": "duplicate rule\tx\t\t1\t\n",
        "dead-pattern.tsv": "Case\tஐ\t\t1\t\nCase\tா\t\t1\t\n",
        "padded.tsv": "Case\t உக்கு \t \t2\t\n",
        "both.tsv": "Case\tஉக்கு\t\t2\t\nCase\t உக்கு \t \t2\t\n",
        "blank.tsv": "Case\t \t\t2\t\n",
        "extra_gold.tsv": _gold_text(ts.extra_gold()),
        "nfd-gold.tsv": unicodedata.normalize("NFD", _gold_text(gold)),
        "short-gold.tsv": "a\tb\n",
    }
    files = {name: text.encode("utf-8") for name, text in texts.items()}
    files["lone-surrogate.tsv"] = "# \udcff\n".encode("utf-8", "surrogatepass")
    files["undecodable.tsv"] = b"\xff\n"
    files["undecodable-line-2.tsv"] = "# ok\n".encode() + b"\xc3\x28\n"
    return files


_STEM_FLAGS = [
    ["--algo", algo, *trace]
    for algo in ("light", "strip")
    for trace in ([], ["--trace"])
]
_CHUNKS = ["--chunks", "200,400,600,1080"]


@pytest.fixture(scope="module")
def gate_runs(word_lists) -> "dict[str, list[tuple[list[str], str, int]]]":
    """Each group's CLI runs: (argv, stdin, exit code)."""
    ok, data, conflict = cli.EX_OK, cli.EX_DATA, cli.EX_RULE_CONFLICT
    gold = ts.bundled_gold()
    gold_text = _gold_text(gold)
    roots, slice_gold = _confusable_slice()
    slice_text = _gold_text(slice_gold)
    gold_lines = gold_text.splitlines(keepends=True)
    mixed_text = "".join(
        unicodedata.normalize("NFD", line) if i % 2 else line
        for i, line in enumerate(gold_lines)
    )
    default_roots = _lines(r.text for r, _ in ts.default_roots())
    mixed_tokens = _MIXED_TOKENS.decode("utf-8") + _lines(word_lists["bundled gold"])
    return {
        "stem-builtin": [
            (["stem", *flags], _lines(word_lists[name]), ok)
            for name in ("bundled gold", "fuzz corpus", "oracle universe", "slice")
            for flags in _STEM_FLAGS
        ],
        "stem-user-rules": [
            (["stem", *flags, "--rules", path], mixed_tokens, ok)
            for path in ("oracle-subset.tsv", "merging.tsv", "hangul.tsv", "empty.tsv")
            for flags in _STEM_FLAGS
        ],
        "eval": [
            (["eval", "--algo", algo, *source], text, ok)
            for source, text in (
                ([], gold_text),
                (["--gold", "extra_gold.tsv"], ""),
                ([], slice_text),
                (["--gold", "nfd-gold.tsv"], ""),
            )
            for algo in ("light", "strip")
        ],
        "compare": [
            (["compare", "--format", fmt, *chunks], text, ok)
            for text in (
                gold_text,
                "".join(line + line for line in gold_lines),
                mixed_text,
                slice_text,
            )
            for fmt in ("table", "csv", "json")
            for chunks in ([], _CHUNKS)
        ],
        "generate": [
            (["generate", "--paradigm", paradigm], text, ok)
            for text in (default_roots, _lines(roots))
            for paradigm in ts.PARADIGMS
        ],
        "rules-validate": [
            (["rules-validate", *path], "", code)
            for path, code in (
                ([], ok),
                (["padded.tsv"], ok),
                (["conflict.tsv"], conflict),
                (["both.tsv"], conflict),
                (["malformed.tsv"], data),
                (["unknown-class.tsv"], data),
                (["dead-pattern.tsv"], data),
                (["blank.tsv"], data),
                (["lone-surrogate.tsv"], data),
                (["undecodable.tsv"], data),
            )
        ],
        "errors": [
            # A lone surrogate on stdin, as `entry` decodes a bad byte.
            (["stem"], "மரம்\nக\udcffள்\n", data),
            (["stem", "--trace"], "மரம்\nமரங்கள்\nக\udcffள்\nமரம்\nக\udcffள்\n", data),
            (["eval"], "மரம்\tமரம்\nக\udcff\tக\n", data),
            (["compare"], "மரம்\tமரம்\nக\tக\udcff\n", data),
            (["generate", "--paradigm", "verb"], "படி\nப\udcffடி\n", data),
            # An inner tab.
            (["stem"], "மரங்கள்\nமரங்கள்\tபெண்கள்\n", data),
            (["stem", "--trace"], "மரங்கள்\nமரங்கள்\tபெண்கள்\n", data),
            (["generate", "--paradigm", "noun"], "# roots\nமரம்\tபெண்\n", data),
            # Empty and malformed gold, and bad files.
            *(
                ([command], text, data)
                for command in ("eval", "compare")
                for text in ("", "\ufeff# only\n\n \r\n# comments\n")
            ),
            (["eval"], "justoneword\n", data),
            (["compare"], "மரம்\tமரம்\tமரம்\n", data),
            (["eval", "--gold", "undecodable-line-2.tsv"], "", data),
            (["stem", "--rules", "undecodable-line-2.tsv"], "மரம்\n", data),
            (["stem", "--rules", "malformed.tsv"], "மரம்\n", data),
            # A chunk past the end.
            (["compare", "--chunks", "2"], "a\tb\n", data),
            (["compare", "--chunks", "2", "--gold", "short-gold.tsv"], "", data),
            (["compare", "--chunks", "200,1081"], gold_text, data),
            # A root that is too short.
            (["generate", "--paradigm", "noun"], "மரம்\nப\n", data),
            (["generate", "--paradigm", "verb"], "படி\nப\n", data),
        ],
    }


# One SHA-256 per group of `gate_runs`, over each run's argv, exit
# code, stdout and stderr.  A change that keeps every CLI byte and exit
# code leaves them as they are; one that changes a group's bytes on
# purpose re-pins that group's digest, which a failure prints.
_CLI_GROUP_SHA256 = {
    "stem-builtin": (
        "a13c3e88574d3802d7fde8a8c63fadfbb22a7f251ad285154bf887f3f052c1e8"
    ),
    "stem-user-rules": (
        "e72e429f5b04b966d39853303a4706830c34f0be93ec79f77bf62b7260d80e2d"
    ),
    "eval": (
        "073585b5bd5e796321161a6620f1b9111d66dff4ded272429b42e49e06c78823"
    ),
    "compare": (
        "9427a13565e4d556f8d2c26c3fe607ee686d8f2f038aeab24766924263806256"
    ),
    "generate": (
        "a21470f712ae3ce230359845b35f9c55f1110ef8c9f8b8ab44e47167663f50cd"
    ),
    "rules-validate": (
        "1ff3a8ae5aedc961f7b601485d0597a9edc69ec0969ab81482e728c553195158"
    ),
    "errors": (
        "7359c04162897a8b995cbb13cb674e0ddbb0de59ce8f142132a650cf32cd3988"
    ),
}


@pytest.mark.parametrize("group", list(_CLI_GROUP_SHA256))
def test_cli_group_bytes_are_pinned(
    capsys, tmp_path, monkeypatch, gate_runs, group
):
    for name, data in _gate_files().items():
        (tmp_path / name).write_bytes(data)
    monkeypatch.chdir(tmp_path)
    digest = hashlib.sha256()
    problems = []
    for argv, text, expected_code in gate_runs[group]:
        code, out, err = _run_stem(argv, text)
        if code != expected_code:
            problems.append(f"{' '.join(argv)}: exit {code}, want {expected_code}")
        for field in ("\0".join(argv), str(code), out, err):
            data = field.encode("utf-8", "surrogatepass")
            digest.update(b"%d:%b" % (len(data), data))
    pinned = _CLI_GROUP_SHA256[group]
    if digest.hexdigest() != pinned:
        problems.append(
            f"SHA-256 {digest.hexdigest()}, pinned {pinned} (Python "
            f"{platform.python_version()}, Unicode {unicodedata.unidata_version})"
        )
    _report(
        capsys,
        not problems,
        f"{group}: {len(gate_runs[group])} CLI runs write the pinned bytes"
        if not problems
        else f"{group}: " + "; ".join(problems),
    )


def _reference():
    """`benchmarks/reference.py`, loaded from its file: a stemmer, a
    paradigm and a compare report that share no code with tamilstem
    beyond reading ``RuleSet.rules``."""
    path = Path(__file__).resolve().parent.parent / "benchmarks" / "reference.py"
    spec = importlib.util.spec_from_file_location("_tamilstem_reference", path)
    module = importlib.util.module_from_spec(spec)
    # Its dataclass looks its module up by name.
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def tamil_words(word_lists):
    """Every word list but the fuzz corpus: the words of Tamil text only,
    which is all that `benchmarks/reference.py` covers."""
    return [
        w
        for name in ("bundled gold", "oracle universe", "slice")
        for w in word_lists[name]
    ]


def test_cli_matches_the_independent_reference(capsys, tamil_words):
    reference = _reference()
    ref = reference.Reference(ts.builtin_rules())
    problems = []
    text = _lines(tamil_words)
    expected = {"light": [], "strip": []}
    for w in tamil_words:
        stem, steps = ref.light(w)
        expected["light"].append(f"{w}\t{stem}\n")
        expected["light"] += ("# " + "\t".join(step) + "\n" for step in steps)
        expected["strip"].append(f"{w}\t{ref.strip(w)}\n")
    for algo, trace in (("light", ["--trace"]), ("strip", [])):
        got = _run_stem(["stem", "--algo", algo, *trace], text)
        if got != (cli.EX_OK, "".join(expected[algo]), ""):
            problems.append(f"stem --algo {algo} {' '.join(trace)}")

    gold = ts.bundled_gold()
    pairs = [(e.surface.text, e.expected_stem.text) for e in gold]
    want, _ = reference.compare_csv(ref, pairs, [200, 400, 600, 1080])
    got = _run_stem(["compare", "--format", "csv", *_CHUNKS], _gold_text(gold))
    if got != (cli.EX_OK, _lines(want), ""):
        problems.append("compare --format csv")

    slice_roots = _confusable_slice()[0]
    for roots in ([r.text for r, _ in ts.default_roots()], slice_roots):
        for paradigm in ts.PARADIGMS:
            code, out, err = _run_stem(
                ["generate", "--paradigm", paradigm], _lines(roots)
            )
            surfaces = [line.split("\t")[0] for line in out.splitlines()]
            want = [s for r in roots for s in reference.forms(r, paradigm)]
            if (code, surfaces, err) != (cli.EX_OK, want, ""):
                problems.append(f"generate --paradigm {paradigm}")
    _report(
        capsys,
        not problems,
        f"CLI stem (light traced, strip), compare and generate equal the "
        f"independent reference on {len(tamil_words)} words"
        if not problems
        else "differ from the reference: " + "; ".join(problems),
    )


def _light_strips_more(words, rules):
    """The words whose light stem has fewer letters than their strip stem."""
    return [
        w for w in words
        if len(ts.light_stem(w, rules).stem) < len(ts.strip_stem(w, rules).stem)
    ]


def test_light_strips_no_more_letters_than_strip(capsys, tamil_words):
    # Paper claim 1's direction: under the built-in rules, light never
    # removes more letters from a word than strip does.
    found = _light_strips_more(tamil_words, ts.builtin_rules())
    _report(
        capsys,
        not found,
        f"light keeps at least strip's letters on {len(tamil_words)} words"
        if not found
        else f"light strips more than strip on {len(found)} words, "
        f"first: {found[:3]}",
    )


# The built-in patterns' letters, plus ப, ம and க.
_CLAIM_LETTERS = sorted(
    {g for rule in ts.builtin_rules().rules for g in rule.pattern.graphemes}
    | {"ப", "ம", "க"}
)


@settings(max_examples=300, derandomize=True, deadline=None)
@given(letters=st.lists(st.sampled_from(_CLAIM_LETTERS), min_size=1, max_size=10))
def test_light_strips_no_more_letters_than_strip_on_any_word(letters):
    text = "".join(letters)
    assert not _light_strips_more([text], ts.builtin_rules()), text


def test_segmentation_joins_back_over_fixture(capsys):
    fixture = [s.text for s, _ in ts.build_corpus()]
    fixture += [e.surface.text for e in ts.extra_gold()]
    problems = []
    if len(fixture) < 1000:
        problems.append(f"fixture has only {len(fixture)} words")
    broken = [
        t for t in fixture if "".join(ts.segment(t).graphemes) != t
    ]
    if broken:
        problems.append(f"{len(broken)} words broke, first: {broken[:3]}")
    if len(ts.segment("மரம்")) != 3:
        problems.append(
            f'segment("மரம்") gave {len(ts.segment("மரம்"))} letters, want 3'
        )
    _report(
        capsys,
        not problems,
        f"join(segment(t)) == t over {len(fixture)}-word fixture; "
        f"மரம் segments into 3 letters"
        if not problems
        else "; ".join(problems),
    )


def test_report_shape_and_exact_averages(capsys):
    rng = random.Random(7)
    pool = list(ts.bundled_gold())
    gold = [pool[rng.randrange(len(pool))] for _ in range(700)]
    chunks = [200, 400, 600, 700]
    report = ts.compare(gold, chunks)

    problems = []
    if [row.n_words for row in report.rows] != chunks:
        problems.append(f"rows {[r.n_words for r in report.rows]} != {chunks}")

    csv_rows = list(csv.reader(io.StringIO(ts.render(report, "csv"))))[1:-1]
    counts = [
        [row.n_words, row.n_unique, row.n_correct_strip, row.n_correct_light]
        for row in report.rows
    ]
    if [[int(r[i]) for i in (0, 1, 2, 4)] for r in csv_rows] != counts:
        problems.append("csv counts differ from the report's")

    # Independent exact-arithmetic oracle: re-evaluate each prefix from
    # scratch with Fractions.
    def oracle_row(k):
        expected = {}
        for entry in gold[:k]:
            expected.setdefault(
                entry.surface.text, entry.expected_stem.text
            )
        n_strip = sum(
            1
            for s, t in expected.items()
            if ts.strip_stem(s).stem.text == t
        )
        n_light = sum(
            1
            for s, t in expected.items()
            if ts.light_stem(s).stem.text == t
        )
        n = len(expected)
        return Fraction(100 * n_strip, n), Fraction(100 * n_light, n)

    oracle = [oracle_row(k) for k in chunks]
    oracle_avg_strip = sum(s for s, _ in oracle) / len(oracle)
    oracle_avg_light = sum(l for _, l in oracle) / len(oracle)
    for name, got, want in (
        ("avg_strip", report.avg_strip, oracle_avg_strip),
        ("avg_light", report.avg_light, oracle_avg_light),
    ):
        rel = abs(got - want) / want
        if rel > Fraction(1, 10**12):
            problems.append(f"{name} off by {float(rel):.2e} relative")
    per_row = list(zip(report.rows, oracle))
    for row, (want_s, want_l) in per_row:
        if row.acc_strip != want_s or row.acc_light != want_l:
            problems.append(f"row {row.n_words} accuracy mismatch")
    _report(
        capsys,
        not problems,
        f"compare over 700 entries: 4 rows + averages, CSV counts verbatim, "
        f"averages exact vs rational oracle"
        if not problems
        else "; ".join(problems),
    )


def test_light_stems_ten_thousand_words_quickly(capsys, fuzz_corpus):
    rules = ts.builtin_rules()
    start = time.perf_counter()
    for w in fuzz_corpus:
        ts.light_stem(w.text, rules)  # raw text: ingestion is timed too
    elapsed = time.perf_counter() - start
    _report(
        capsys,
        elapsed < 1.0,
        f"light stemmed {len(fuzz_corpus)} words in {elapsed:.3f}s (< 1s)"
        if elapsed < 1.0
        else f"too slow: {elapsed:.3f}s for {len(fuzz_corpus)} words",
    )


def test_cli_stems_ten_thousand_words_quickly(capsys, fuzz_corpus):
    stdin = io.StringIO("".join(w.text + "\n" for w in fuzz_corpus))
    stdout = io.StringIO()
    start = time.perf_counter()
    code = cli.main(["stem"], stdin, stdout, io.StringIO())
    elapsed = time.perf_counter() - start
    lines = stdout.getvalue().count("\n")
    problems = []
    if (code, lines) != (cli.EX_OK, len(fuzz_corpus)):
        problems.append(f"exit {code} with {lines} lines")
    if elapsed >= 1.0:
        problems.append(f"too slow: {elapsed:.3f}s for {len(fuzz_corpus)} words")
    _report(
        capsys,
        not problems,
        f"CLI stem wrote {lines} lines in {elapsed:.3f}s (< 1s)"
        if not problems
        else "; ".join(problems),
    )
