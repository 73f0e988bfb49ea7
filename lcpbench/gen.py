"""Seeded synthetic corpus and lexicons at the paper's scale.

A *world* is a pool of pseudo-words with a Zipf-like frequency ranking, a
latent difficulty per word, and six lexicons of about 40k entries that each
cover only part of the pool. Corpora and query files are samples from a
world. The same seeds always give byte-identical files.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from pathlib import Path

#: Every workload samples from this one world; --seed picks the sample.
WORLD_SEED = 0
POOL_SIZE = 50_000
CORPUS_ROWS = 7_662
ZIPF_EXPONENT = 1.05
ZIPF_SHIFT = 40.0
SUBCORPORA = ("bible", "europarl", "biomed")

_ONSETS = (
    "", "b", "br", "c", "ch", "cl", "cr", "d", "dr", "f", "fl", "g", "gr", "h", "j", "k",
    "l", "m", "n", "p", "ph", "pl", "pr", "qu", "r", "s", "sc", "sh", "sl", "sp", "st",
    "str", "t", "th", "tr", "v", "w", "wh", "z",
)
_VOWELS = ("a", "e", "i", "o", "u", "y", "ai", "ea", "ee", "io", "ou", "oo", "ie")
_CODAS = ("", "", "", "n", "r", "s", "t", "l", "m", "nd", "nt", "st", "ck", "ng", "rt", "x")
_SUFFIXES = ("", "", "", "", "ing", "ed", "er", "tion", "ness", "ity", "ous", "al", "ly", "ment")

#: name -> (share of the pool the lexicon covers, file layout).
#: Layouts follow the README's example config: aoa_1981 has a header row,
#: arousal keeps its value in the third column.
LEXICONS = {
    "aoa_1981": (0.62, "header"),
    "aoa_2017": (0.80, "plain"),
    "prevalence": (0.86, "plain"),
    "concreteness_brysbaert": (0.78, "plain"),
    "arousal": (0.70, "three_column"),
    "frequency": (0.94, "plain"),
}


@dataclass(frozen=True)
class World:
    words: tuple[str, ...]  # index = frequency rank, most frequent first
    weights: tuple[float, ...]  # Zipf-Mandelbrot weight per rank
    cumulative: tuple[float, ...]  # running sum of weights
    difficulty: tuple[float, ...]  # latent difficulty in [0, 1] per word


def _pseudo_word(rng: random.Random) -> str:
    n_syll = min(1 + int(rng.expovariate(0.9)), 5)
    parts = [rng.choice(_ONSETS) + rng.choice(_VOWELS) + rng.choice(_CODAS) for _ in range(n_syll)]
    return "".join(parts) + rng.choice(_SUFFIXES)


def _vowel_runs(word: str) -> int:
    runs, in_run = 0, False
    for ch in word:
        is_vowel = ch in "aeiouy"
        runs += is_vowel and not in_run
        in_run = is_vowel
    return max(runs, 1)


def make_world(seed: int) -> World:
    """Word pool, frequency ranking and difficulties for one world seed."""
    rng = random.Random(seed)
    pool: set[str] = set()
    while len(pool) < POOL_SIZE:
        word = _pseudo_word(rng)
        if len(word) >= 2:
            pool.add(word)
    # Shorter words tend to be more frequent: rank by length plus noise.
    words = sorted(sorted(pool), key=lambda w: len(w) + rng.gauss(0.0, 2.5))
    weights = [1.0 / (r + ZIPF_SHIFT) ** ZIPF_EXPONENT for r in range(len(words))]
    cumulative, acc = [], 0.0
    for w in weights:
        acc += w
        cumulative.append(acc)
    log_max = math.log(weights[0])
    log_min = math.log(weights[-1])
    difficulty = []
    for r, word in enumerate(words):
        rarity = (log_max - math.log(weights[r])) / (log_max - log_min)
        raw = 0.45 * rarity + 0.03 * len(word) + 0.06 * _vowel_runs(word) + rng.gauss(0.0, 0.08)
        difficulty.append(min(1.0, max(0.0, raw - 0.1)))
    return World(tuple(words), tuple(weights), tuple(cumulative), tuple(difficulty))


def lexicon_files(world: World, seed: int) -> dict[str, bytes]:
    """Registry name -> TSV bytes for the six lexicons of a world."""
    rng = random.Random(seed)
    return {
        name: _lexicon_tsv(name, share, layout, world, rng)
        for name, (share, layout) in LEXICONS.items()
    }


def _lexicon_value(name: str, d: float, weight: float, rng: random.Random) -> float:
    if name.startswith("aoa"):
        return 2.0 + 14.0 * d + rng.gauss(0.0, 1.2)
    if name == "prevalence":
        return 2.6 - 1.8 * d + rng.gauss(0.0, 0.25)
    if name == "concreteness_brysbaert":
        return 4.2 - 2.0 * d + rng.gauss(0.0, 0.6)
    if name == "arousal":
        return 4.0 + 1.5 * d + rng.gauss(0.0, 1.0)
    return max(1.0, round(weight * 4.0e7 * math.exp(rng.gauss(0.0, 0.3))))


def _lexicon_tsv(name, share, layout, world: World, rng: random.Random) -> bytes:
    lines = ["Word\tValue"] if layout == "header" else []
    for word, d, weight in zip(world.words, world.difficulty, world.weights):
        if rng.random() >= share:
            continue
        value = _lexicon_value(name, d, weight, rng)
        cell = f"{value:.0f}" if name == "frequency" else f"{value:.3f}"
        if layout == "three_column":
            lines.append(f"{word}\t{rng.randint(1, 40)}\t{cell}")
        else:
            lines.append(f"{word}\t{cell}")
    return ("\n".join(lines) + "\n").encode("utf-8")


def lexicon_specs(directory: Path) -> list[dict]:
    """Keyword arguments for ``lcpkit.LexiconSpec`` for each lexicon file."""
    specs = []
    for name, (_, layout) in LEXICONS.items():
        spec = {"name": name, "path": str(directory / f"{name}.tsv")}
        if layout == "header":
            spec["skip_rows"] = 1
        elif layout == "three_column":
            spec["value_column"] = 2
        specs.append(spec)
    return specs


@dataclass(frozen=True)
class Row:
    id: str
    subcorpus: str
    sentence: str
    token: str
    gold: float


def sample_rows(world: World, n: int, seed: int, prefix: str = "r") -> list[Row]:
    """n annotated instances with Zipf-distributed target tokens."""
    rng = random.Random(seed)
    total = world.cumulative[-1]

    def draw() -> int:
        return min(_bisect(world.cumulative, rng.random() * total), len(world.words) - 1)

    rows = []
    for i in range(n):
        rank = draw()
        token = world.words[rank]
        context = [world.words[draw()] for _ in range(rng.randint(6, 14))]
        context.insert(rng.randint(0, len(context)), token)
        raw = 0.06 + 0.55 * world.difficulty[rank] + rng.gauss(0.0, 0.05)
        # Scores are means of ten 5-point ratings, so they sit on a 1/40 grid.
        gold = min(40, max(0, round(raw * 40))) / 40
        rows.append(Row(f"{prefix}{i:06d}", SUBCORPORA[i % 3], " ".join(context), token, gold))
    return rows


def _bisect(cumulative, x: float) -> int:
    lo, hi = 0, len(cumulative)
    while lo < hi:
        mid = (lo + hi) // 2
        if cumulative[mid] < x:
            lo = mid + 1
        else:
            hi = mid
    return lo


def dataset_tsv(rows: list[Row], with_gold: bool) -> bytes:
    header = "id\tcorpus\tsentence\ttoken" + ("\tcomplexity" if with_gold else "")
    lines = [header]
    for r in rows:
        cells = [r.id, r.subcorpus, r.sentence, r.token] + ([repr(r.gold)] if with_gold else [])
        lines.append("\t".join(cells))
    return ("\n".join(lines) + "\n").encode("utf-8")


def write_lexicons(world: World, seed: int, directory: Path) -> None:
    directory.mkdir(parents=True, exist_ok=True)
    for name, data in lexicon_files(world, seed).items():
        (directory / f"{name}.tsv").write_bytes(data)
