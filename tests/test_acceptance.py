"""End-to-end acceptance checks.

Each test prints one PASS/FAIL summary line (bypassing capture) and
fails loudly if its property does not hold within the stated budget:

1. accuracy arithmetic renders the reference quadruples exactly (< 1 s)
2. paradigm round-trip over the shipped roots is perfect (< 5 s)
3. light scores at least as high as strip on the bundled gold set,
   and strip scores >= 85%; on the confusable-root slice, scored and
   reported apart from it, light scores strictly above strip
4. both engines are idempotent over a 10,000-word fuzz corpus
5. strip's first applied rule, and the rule each single-step helper
   applies within its classes, is always the longest applicable one,
   against brute-force search over an exhaustive bounded universe
6. the one walk `compare` runs for both engines gives each engine's own
   result over that universe and the fuzz corpus
7. a word that the text-only check says no rule matches is its own
   stem with an empty trace under both engines, for five rule sets,
   over that universe, the fuzz corpus and the bundled gold surfaces
8. `stem` without `--trace` writes exactly the non-`#` lines of
   `stem --trace`, and those are each engine's stems, for three rule
   sets over the bundled gold surfaces and the fuzz corpus
9. joining segmented letters reproduces the text over a 1,000+-word
   fixture
10. comparison reports have the right shape, CSV round-trips losslessly,
   and averages match exact rational arithmetic to within 1e-12
11. light stems 10,000 words in under a second, and so does the CLI
"""

import io
import itertools
import random
import time
import unicodedata
import warnings
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import tamilstem as ts
from tamilstem import cli
from tamilstem.rules import _matches_none
from tamilstem.stemmers import _both

FUZZ_SEED = 987654321

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


def test_light_beats_strip_on_confusable_roots(capsys):
    # Paper claim 1 on a slice where the engines differ: each root is
    # பட plus a built-in rule's pattern, so its ending looks like a
    # suffix, and both paradigms inflect it.  The slice is adversarial
    # to strip by construction, so it is never averaged with the
    # bundled gold.
    roots = ["பட" + rule.pattern.text for rule in ts.builtin_rules().rules]
    gold = [
        ts.GoldEntry(surface, stem)
        for root in roots
        for paradigm in ts.PARADIGMS
        for surface, stem in ts.generate_forms(root, paradigm)
    ]
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
    C = ts.SuffixClass
    # The single-step helpers apply the first rule within their classes.
    helpers = [
        (ts.strip_plural, {C.PLURAL}),
        (ts.adjectival_to_verb, {C.ADJECTIVAL_PARTICIPLE}),
        (
            ts.strip_tense,
            {C.TENSE, C.NEGATIVE_COMPOUND, C.PERSON_NUMBER_GENDER},
        ),
    ]

    def brute_force_best(w, classes=ts.ALL_CLASSES):
        applicable = [
            r
            for r in subset.rules
            if r.klass in classes
            and ts.ends_with(w, r.pattern)
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
        for helper, classes in helpers:
            best = brute_force_best(w, classes)
            stem = w if best is None else ts.apply_rule(w, best)
            if helper(w, subset) != stem:
                violations.append((helper.__name__, w.text, stem.text))
    _report(
        capsys,
        not violations,
        f"longest-match agrees with brute force on {len(universe)} words "
        f"x 30 rules, for strip_stem and the 3 single-step helpers"
        if not violations
        else f"{len(violations)} violations, first: {violations[:3]}",
    )


def test_one_walk_for_both_engines_matches_two(capsys, fuzz_corpus):
    rules = ts.builtin_rules()
    words = _oracle_universe(_oracle_rules()) + fuzz_corpus
    violations = [
        w.text
        for w in words
        if _both(rules, w)
        != (ts.strip_stem(w, rules), ts.light_stem(w, rules))
    ]
    _report(
        capsys,
        not violations,
        f"one strip+light walk matches both engines on {len(words)} "
        f"words (oracle universe + fuzz corpus)"
        if not violations
        else f"{len(violations)} violations, first: {violations[:3]}",
    )


# Besides the built-in rules and the oracle subset: Latin patterns, and
# patterns of one and two code points, whose tails are shorter than 3.
_LATIN_RULES = (
    "Case\tஉக்கு\t\t1\tPlural\n"
    "Plural\tங்கள்\tம்\t1\t\n"
    "Case\ting\t\t1\tPlural\n"
    "Plural\ts\t\t1\t\n"
)
_SHORT_RULES = "Case\tஐ\t\t1\t\nVocative\tஏ\t\t1\t\nPlural\tள்\t\t1\t\n"


def test_text_only_no_match_check_is_sound(capsys, fuzz_corpus):
    rule_sets = {
        "built-in": ts.builtin_rules(),
        "oracle subset": _oracle_rules(),
        "Latin": ts.parse_rules(_LATIN_RULES),
        "empty": ts.parse_rules(""),
        "short patterns": ts.parse_rules(_SHORT_RULES),
    }
    texts = sorted(
        {w.text for w in _oracle_universe(_oracle_rules()) + fuzz_corpus}
        | {e.surface.text for e in ts.bundled_gold()}
    )
    problems = []
    caught = {}
    for name, rules in rule_sets.items():
        caught[name] = 0
        for text in texts:
            if not _matches_none(rules, text):
                continue
            caught[name] += 1
            for engine in (ts.strip_stem, ts.light_stem):
                result = engine(text, rules)
                if result.trace or result.stem.text != text:
                    problems.append(f"{name}: {engine.__name__}({text!r})")
        if not caught[name]:
            problems.append(f"{name}: the check caught no word")
    _report(
        capsys,
        not problems,
        f"no-match check sound over {len(texts)} words; caught "
        + ", ".join(f"{n} {name}" for name, n in caught.items())
        if not problems
        else f"{len(problems)} violations, first: {problems[:3]}",
    )


# A user rule set with a merging replacement: `லம்` gives way to the
# vowel sign `ா`, which joins the letter before it (`rules._merges`).
_MERGING_RULES = (
    "Case\tலம்\tா\t2\tPlural\n"
    "Case\tஉக்கு\t\t1\tPlural\n"
    "Plural\tங்கள்\tம்\t1\t\n"
)
_MERGING_WORDS = ["படலம்", "படலங்கள்", "படலம்உக்கு", "கெலம்", "மரங்கள்உக்கு"]


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

    csv_text = ts.render(report, "csv")
    if ts.parse_report_csv(csv_text) != report:
        problems.append("csv round-trip lost information")

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
        f"compare over 700 entries: 4 rows + averages, CSV lossless, "
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
