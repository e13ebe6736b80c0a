"""Seeded inputs for the three benchmark workloads.

A run draws its inputs piece by piece, each before the timed sections
that use it, from one random generator seeded by ``--seed``.  The pieces
are drawn in a fixed order, so the same seed gives the same sequence of
inputs, however many of them a run gets through.  Every piece comes with
the outputs the reference (reference.py) expects for it.  The program
under test only ever receives the generated text.

On stem-unique and generate-compare no surface is handed to the program
twice in one process: the stem stream, the per-call stream and the
evaluation parts are all disjoint.  A cache inside the program can then
never hit there, which is what those workloads are for.
"""

from __future__ import annotations

import hashlib
import itertools
import random
import unicodedata
from dataclasses import dataclass
from fractions import Fraction

import tamilstem as ts

from reference import Reference, compare_csv, forms, letters

WHY = {
    "stem-zipf": (
        "running text: a Zipf stream over the bundled-gold surfaces, so "
        "tokens repeat and the rules and stemmers layers do the work"
    ),
    "stem-unique": (
        "no token reaches the program twice and most match no rule, so "
        "normalize, segment, one failed lookup and CLI I/O dominate; a cache is bypassed"
    ),
    "generate-compare": (
        "the evaluation workflow: paradigm builds never-repeated surfaces, "
        "load_gold segments both columns and compare runs strip and light"
    ),
}

# Sizes of one draw.  selfcheck.py shrinks them with ``scale``.
STREAM = 2_500
EVAL_PART = 5_000
GENERATE_BATCH = 50
COMPARE_CHUNKS = 4
# The reported accuracies are the mean over the first parts of a run,
# so they repeat exactly for a seed; every run gets through this many.
ACCURACY_PARTS = 4

# The Zipf rank of each surface is fixed, so the cost profile of the
# stream (which words are hot) is a property of the workload; the seed
# only draws the sample.  With a per-seed ranking, whether the hottest
# word matches zero or three rules would move words_per_s by more than
# the benchmark's bound.
_ZIPF_RANK_SEED = 20130101

_CONSONANTS = [
    chr(c) for c in range(0x0B95, 0x0BBA) if unicodedata.category(chr(c)) == "Lo"
]
_SIGNS = [
    chr(c)
    for c in range(0x0BBE, 0x0BCE)
    if unicodedata.category(chr(c)) in ("Mn", "Mc")
]
_INDEPENDENT = [
    chr(c) for c in range(0x0B85, 0x0B95) if unicodedata.category(chr(c)) == "Lo"
]
_M_FINAL = "ம்"
_PULLI = "்"
# Root kinds in the order a batch cycles through them: half verbs, a
# quarter plain nouns, a quarter m-final nouns.  Every batch of the same
# size then yields the same number of forms.
_KINDS = ("verb", "verb", "noun", "m-final")


def _nfc(text: str) -> str:
    return unicodedata.normalize("NFC", text)


@dataclass(frozen=True)
class Stream:
    """Tokens for ``tamilstem stem`` or ``light_stem``, with the
    reference's light stems (and strip stems, when asked for)."""

    tokens: tuple[str, ...]
    light: tuple[str, ...]
    strip: tuple[str, ...] | None

    @property
    def text(self) -> str:
        return "".join(t + "\n" for t in self.tokens)

    @property
    def lines(self) -> list[str]:
        """The expected output of ``tamilstem stem --algo light``."""
        return [f"{t}\t{s}" for t, s in zip(self.tokens, self.light)]


@dataclass(frozen=True)
class Part:
    """One run of the evaluation pipeline.

    The (surface, stem) pairs of ``gold`` go through ``tamilstem compare``
    with cumulative ``chunks``, which must print ``report``.  When the part
    has ``roots``, its gold text is what ``tamilstem generate`` prints for
    them, one paradigm after the other, and ``generated`` holds the lines
    each of those runs must print.
    """

    gold: tuple[tuple[str, str], ...]
    chunks: tuple[int, ...]
    roots: dict[str, tuple[str, ...]]
    generated: dict[str, list[str]]
    report: list[str]

    @property
    def gold_text(self) -> str:
        return "".join(f"{s}\t{r}\n" for s, r in self.gold)

    def root_text(self, paradigm: str) -> str:
        return "".join(r + "\n" for r in self.roots[paradigm])


class _Unseen:
    """A fixed-size Bloom filter of the surfaces handed out so far.

    A false positive only rejects a new surface, so no surface is ever
    handed out twice; the memory stays the same however long the run.
    """

    BITS = 1 << 25
    HASHES = 3

    def __init__(self) -> None:
        self._bits = bytearray(self.BITS // 8)

    def _positions(self, text: str) -> list[int]:
        h = int.from_bytes(hashlib.blake2b(text.encode(), digest_size=12).digest(), "little")
        return [(h >> (32 * k)) & (self.BITS - 1) for k in range(self.HASHES)]

    def claim(self, texts) -> bool:
        """Mark ``texts`` seen and return True, unless one was seen already."""
        positions = [p for t in texts for p in self._positions(t)]
        bits = self._bits
        for k in range(0, len(positions), self.HASHES):
            if all(bits[p >> 3] & (1 << (p & 7)) for p in positions[k:k + self.HASHES]):
                return False
        for p in positions:
            bits[p >> 3] |= 1 << (p & 7)
        return True


def _chunks(n: int) -> tuple[int, ...]:
    return tuple(sorted({max(1, n * k // COMPARE_CHUNKS) for k in range(1, COMPARE_CHUNKS + 1)}))


def _random_cluster(rng: random.Random) -> str:
    base = rng.choice(_CONSONANTS)
    return base + rng.choice(_SIGNS) if rng.random() < 0.75 else base


def random_word(rng: random.Random) -> str:
    # Same recipe as the fuzz corpus in tests/test_acceptance.py.
    n = rng.randint(2, 9)
    first = rng.choice(_INDEPENDENT) if rng.random() < 0.25 else _random_cluster(rng)
    text = first + "".join(_random_cluster(rng) for _ in range(n - 1))
    return _nfc(text)


def _mutate(rng: random.Random, split: tuple[str, ...]) -> str:
    out = list(split)
    if rng.random() < 0.5 and len(out) >= 2:
        i = rng.randrange(len(out) - 1)
        out[i], out[i + 1] = out[i + 1], out[i]
    else:
        del out[rng.randrange(len(out))]
    return _nfc("".join(out))


def _random_root(rng: random.Random, kind: str) -> str:
    if kind == "m-final":
        return _nfc(
            "".join(_random_cluster(rng) for _ in range(rng.randint(1, 3))) + _M_FINAL
        )
    split = [_random_cluster(rng) for _ in range(rng.randint(2, 3))]
    if kind == "verb":
        # Verb roots end in a vowel or a bare consonant, as in படி, கேள்.
        split[-1] = split[-1][0] + (rng.choice(_SIGNS) if rng.random() < 0.8 else _PULLI)
    return _nfc("".join(split))


def _labelled_surfaces() -> dict[str, str]:
    """Bundled-gold surface -> expected stem, first occurrence wins."""
    labels: dict[str, str] = {}
    for entry in ts.bundled_gold():
        labels.setdefault(entry.surface.text, entry.expected_stem.text)
    return labels


class Source:
    """The inputs of one workload, drawn in order from the seed.

    ``stream`` gives the next tokens to stem, ``part`` the next run of the
    evaluation pipeline and ``roots`` the next roots for ``generate_forms``.
    """

    def __init__(self, name: str, seed: int, reference: Reference, scale: float = 1.0):
        if name not in WHY:
            raise ValueError(f"unknown workload: {name!r}")
        self.name, self.scale = name, scale
        self._rng = random.Random(seed)
        self._ref = reference
        self.stream_size = max(2, int(STREAM * scale))
        self._eval_part = max(2, int(EVAL_PART * scale))
        self._batch = max(len(_KINDS), int(GENERATE_BATCH * scale))
        # Zipf's surfaces repeat by design; the others are never repeated.
        self._unseen = None if name == "stem-zipf" else _Unseen()
        self._labels: dict[str, str] = {}
        if name == "stem-zipf":
            self._labels = _labelled_surfaces()
            self._ranked = sorted(self._labels)
            random.Random(_ZIPF_RANK_SEED).shuffle(self._ranked)
            self._cum = list(
                itertools.accumulate(1.0 / k for k in range(1, len(self._ranked) + 1))
            )
        self._streamed = 0
        self._parts = self._entries = 0
        self._scored: list[tuple[int, int, int]] = []

    @property
    def why(self) -> str:
        return WHY[self.name]

    def _fresh(self, texts) -> bool:
        return self._unseen is None or self._unseen.claim(texts)

    def roots(self, n: int) -> list[tuple[str, str]]:
        """``n`` new (root, paradigm) pairs, kinds cycling through _KINDS.
        On generate-compare no form of a root was produced before."""
        out = []
        while len(out) < n:
            kind = _KINDS[len(out) % len(_KINDS)]
            root = _random_root(self._rng, kind)
            paradigm = "verb" if kind == "verb" else "noun"
            if len(letters(root)) >= 2 and self._fresh(set(forms(root, paradigm))):
                out.append((root, paradigm))
        return out

    def _surfaces(self, n: int) -> list[str]:
        rng = self._rng
        if self.name == "stem-zipf":
            return rng.choices(self._ranked, cum_weights=self._cum, k=n)
        out: list[str] = []
        if self.name == "generate-compare":
            while len(out) < n:
                for root, paradigm in self.roots(len(_KINDS)):
                    out.extend(dict.fromkeys(forms(root, paradigm)))
            return out[:n]
        # stem-unique: half random words, half one-letter mutations of
        # paradigm forms of random roots, as in the fuzz corpus of
        # tests/test_acceptance.py (which mutates the shipped corpus).
        while len(out) < n:
            if len(out) < n // 2:
                w = random_word(rng)
            else:
                kind = rng.choice(_KINDS)
                root = _random_root(rng, kind)
                form = rng.choice(forms(root, "verb" if kind == "verb" else "noun"))
                w = _mutate(rng, letters(form))
            if w and self._fresh((w,)):
                out.append(w)
        rng.shuffle(out)
        return out

    def stream(self, n: int | None = None, strip: bool = False) -> Stream:
        """The next ``n`` tokens of the stem stream (``stream_size`` by
        default), with the reference's stems."""
        tokens = tuple(self._surfaces(n or self.stream_size))
        self._streamed += len(tokens)
        ref = self._ref
        light = tuple(ref.light(t)[0] for t in tokens)
        stripped = tuple(ref.strip(t) for t in tokens) if strip else None
        ref.clear()
        return Stream(tokens, light, stripped)

    def part(self, size: float = 1.0) -> Part:
        """The next run of the evaluation pipeline, with its expected
        output; ``size`` scales it from the usual size.  The accuracies
        are those of the first usual-size parts."""
        ref = self._ref
        roots: dict[str, tuple[str, ...]] = {}
        generated: dict[str, list[str]] = {}
        if self.name == "generate-compare":
            drawn = self.roots(max(len(_KINDS), int(self._batch * size)))
            gold = []
            for paradigm in ("noun", "verb"):
                roots[paradigm] = tuple(r for r, p in drawn if p == paradigm)
                pairs = [(s, r) for r in roots[paradigm] for s in forms(r, paradigm)]
                generated[paradigm] = [f"{s}\t{r}" for s, r in pairs]
                gold.extend(pairs)
        else:
            tokens = self._surfaces(max(2, int(self._eval_part * size)))
            if self.name == "stem-zipf":
                gold = [(t, self._labels[t]) for t in tokens]
            else:
                # These words have no gold stem: the reference's light stem
                # labels each, so light scores 100 and strip less.
                gold = [(t, ref.light(t)[0]) for t in tokens]
        chunks = _chunks(len(gold))
        report, scored = compare_csv(ref, gold, chunks)
        ref.clear()
        self._parts += 1
        self._entries += len(gold)
        if size == 1.0 and len(self._scored) < ACCURACY_PARTS:
            self._scored.append(scored)
        return Part(tuple(gold), chunks, roots, generated, report)

    def accuracies(self) -> tuple[Fraction, Fraction]:
        """Exact (strip, light) accuracy in percent over the distinct
        surfaces of the first ACCURACY_PARTS parts, each part counted
        on its own."""
        ok_strip, ok_light, unique = (sum(c) for c in zip(*self._scored))
        return Fraction(100 * ok_strip, unique), Fraction(100 * ok_light, unique)

    def drawn(self) -> dict[str, int]:
        """How much input the run has drawn so far."""
        return {
            "stream_tokens": self._streamed,
            "evaluation_parts": self._parts,
            "gold_entries": self._entries,
        }
