"""Shared builders for toy datasets and lexicons."""

from __future__ import annotations

import copy
import json
import math
import os
import random
import string
from typing import Sequence

import pytest
from hypothesis import settings, strategies as st

from lcpkit.corpus import Instance, parse_dataset
from lcpkit.lexicons import Lexicon, LexiconRegistry

SUBCORPORA = ("bible", "europarl", "biomed")

# HYPOTHESIS_PROFILE=ci runs ten times Hypothesis's default number of
# examples in every property test that does not set its own, among them the
# screened split search's exactness test.
settings.register_profile("ci", max_examples=1000)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "default"))


def dataset_tsv(rows, with_gold_column=True) -> bytes:
    header = "id\tcorpus\tsentence\ttoken" + ("\tcomplexity" if with_gold_column else "")
    lines = [header]
    for row in rows:
        lines.append("\t".join(str(c) for c in row))
    return ("\n".join(lines) + "\n").encode("utf-8")


def lexicon_tsv(entries) -> bytes:
    return ("\n".join(f"{t}\t{v}" for t, v in entries) + "\n").encode("utf-8")


def random_word(rng: random.Random, min_len=3, max_len=10) -> str:
    return "".join(rng.choice(string.ascii_lowercase) for _ in range(rng.randint(min_len, max_len)))


def make_instances(n: int, seed: int, score=None) -> list[Instance]:
    """n distinct-token instances; gold from ``score(token, rng)`` when given."""
    rng = random.Random(seed)
    words = set()
    while len(words) < n:
        words.add(random_word(rng))
    instances = []
    for k, word in enumerate(sorted(words)):
        gold = None if score is None else score(word, rng)
        instances.append(
            Instance(
                id=f"i{k:05d}",
                subcorpus=SUBCORPORA[k % 3],
                sentence=f"every {word} in this sentence counts",
                token=word,
                gold=gold,
            )
        )
    return instances


def make_registry(**lexicons: Lexicon) -> LexiconRegistry:
    registry = LexiconRegistry()
    for lex in lexicons.values():
        registry.add(lex)
    return registry


def continuous_lexicon(name: str, entries: dict) -> Lexicon:
    return Lexicon(name=name, kind="continuous", entries=dict(entries))


def binary_lexicon(name: str, entries: dict) -> Lexicon:
    return Lexicon(name=name, kind="binary", entries=dict(entries))


@pytest.fixture
def tiny_corpus_bytes() -> bytes:
    rows = [
        ("a1", "bible", "there came up out of the river seven cattle", "river", "0.10"),
        ("a2", "europarl", "the parliament adopted the proposal", "proposal", "0.35"),
        ("a3", "biomed", "the protein misfolds under stress", "protein", "0.55"),
        ("a4", "bible", "a voice cried in the wilderness", "wilderness", "0.80"),
        ("a5", "europarl", "the committee was unanimous", "committee", "0.25"),
        ("a6", "biomed", "enzyme kinetics were measured", "enzyme", "0.60"),
    ]
    return dataset_tsv(rows)


@pytest.fixture
def tiny_instances(tiny_corpus_bytes) -> list[Instance]:
    return parse_dataset(tiny_corpus_bytes, has_gold=True)


def synthetic_complexity(word: str, freq: int, noise: float, max_log: float) -> float:
    """Syllables-plus-frequency-deficit target used by recovery tests."""
    from lcpkit.features import syllable_count

    deficit = max_log - math.log1p(freq)
    raw = 0.1 * syllable_count(word) + 0.05 * deficit + noise
    return min(1.0, max(0.0, raw))


def tsv_inputs(valid: bytes, tokens: Sequence[bytes], max_cells: int, head: bytes = b"") -> st.SearchStrategy[bytes]:
    """Inputs for a TSV parser: arbitrary bytes, ``head`` followed by up to 8
    lines of 1 to ``max_cells`` tab-separated ``tokens``, or ``valid`` with
    one ``mutated`` edit."""
    line = st.lists(st.sampled_from(tokens), min_size=1, max_size=max_cells).map(b"\t".join)
    lines = st.lists(line, max_size=8).map(lambda ls: head + b"\n".join(ls))
    return st.one_of(st.binary(max_size=200), lines, mutated(valid, b"\t", tokens))


@st.composite
def mutated(draw, valid: bytes, sep: bytes, tokens: Sequence[bytes]) -> bytes:
    """``valid`` with one random edit: a ``sep``-separated token of one line
    replaced by one of ``tokens``, a line replaced by random bytes, deleted,
    duplicated or swapped with another, or a few bytes spliced in anywhere."""
    lines = valid.split(b"\n")
    i = draw(st.integers(0, len(lines) - 1))
    j = draw(st.integers(0, len(lines) - 1))
    op = draw(st.sampled_from(["token", "line", "delete", "duplicate", "swap", "splice"]))
    if op == "token":
        parts = lines[i].split(sep)
        parts[draw(st.integers(0, len(parts) - 1))] = draw(st.sampled_from(tokens))
        lines[i] = sep.join(parts)
    elif op == "line":
        lines[i] = draw(st.binary(max_size=24))
    elif op == "delete":
        del lines[i]
    elif op == "duplicate":
        lines.insert(j, lines[i])
    elif op == "swap":
        lines[i], lines[j] = lines[j], lines[i]
    data = b"\n".join(lines)
    if op == "splice":
        k = draw(st.integers(0, len(data)))
        data = data[:k] + draw(st.binary(max_size=6)) + data[k + draw(st.integers(0, 6)) :]
    return data


#: What a member of a JSON document may be replaced with: a number by an
#: edge-case number, anything else by a value of another type.
JSON_NUMBERS = [math.nan, math.inf, -math.inf, -1, 0, 10**30]
JSON_VALUES = [1.5, "x", "", None, True, [], {}, ["x"], {"x": 1}, {"x": -1}]


@st.composite
def mutated_json(draw, valid: bytes) -> bytes:
    """``valid`` JSON with one to three edits. Each walks down from the top
    to a random member and replaces it or, in an object, deletes it."""
    doc = json.loads(valid)
    for _ in range(draw(st.integers(1, 3))):
        node = doc
        while True:
            key = draw(st.sampled_from(sorted(node) if isinstance(node, dict) else range(len(node))))
            child = node[key]
            if not (isinstance(child, (dict, list)) and child and draw(st.integers(0, 3))):
                break
            node = child
        if isinstance(node, dict) and draw(st.booleans()):
            del node[key]
        else:
            number = isinstance(child, (int, float)) and not isinstance(child, bool)
            node[key] = copy.deepcopy(draw(st.sampled_from(JSON_NUMBERS if number else JSON_VALUES)))
    return json.dumps(doc).encode("utf-8")
