"""Shared builders for toy datasets and lexicons."""

from __future__ import annotations

import copy
import json
import math
import os
import random
import string
from itertools import repeat
from typing import Sequence

import numpy as np
import pytest
from hypothesis import settings, strategies as st

from lcpkit.corpus import Instance, parse_dataset
from lcpkit.errors import DataError, decode_utf8
from lcpkit.forest import RandomForest, Tree, _parse_config_lines
from lcpkit.lexicons import BINARY, Lexicon, LexiconRegistry, LexiconSpec

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


def reference_load_lexicon(spec: LexiconSpec, source: bytes) -> dict[str, float]:
    """The entries ``lexicons.load_lexicon`` must return, read one line at a
    time: each line's checks in file order, duplicates summed from 0.0 in
    file order and divided by their count (binary: 1 if any is 1)."""
    text = decode_utf8(source, f"lexicon {spec.name!r}:")
    need = max(spec.term_column, spec.value_column) + 1
    sums: dict[str, float] = {}
    counts: dict[str, int] = {}
    for line_no, line in enumerate(text.splitlines(), start=1):
        if line_no <= spec.skip_rows:
            continue
        parts = line.split("\t")
        if len(parts) < need:
            raise DataError(
                f"lexicon {spec.name!r} line {line_no}: expected at least {need} columns,"
                f" found {len(parts)}"
            )
        term = parts[spec.term_column].strip()
        if not term:
            raise DataError(f"lexicon {spec.name!r} line {line_no}: empty term")
        if spec.lowercase:
            term = term.lower()
        cell = parts[spec.value_column].strip()
        try:
            value = float(cell)
        except ValueError:
            raise DataError(
                f"lexicon {spec.name!r} line {line_no}: non-numeric value {cell!r}"
            ) from None
        if not math.isfinite(value):
            raise DataError(f"lexicon {spec.name!r} line {line_no}: non-finite value {cell!r}")
        if spec.kind == BINARY and value not in (0.0, 1.0):
            raise DataError(
                f"lexicon {spec.name!r} line {line_no}: binary value must be 0 or 1, got {cell}"
            )
        if spec.kind == BINARY:
            sums[term] = max(sums.get(term, 0.0), value)
            counts[term] = 1
        else:
            sums[term] = sums.get(term, 0.0) + value
            counts[term] = counts.get(term, 0) + 1
            if not math.isfinite(sums[term]):
                raise DataError(f"lexicon {spec.name!r} line {line_no}: the values of {term!r} overflow")
    return {t: sums[t] / counts[t] for t in sums}


def reference_load_model(data: bytes) -> RandomForest:
    """The model ``forest.load_model`` must return for ``data``, or the
    DataError it must raise: the whole text split into lines and each tree
    section into tokens, each number read by ``int`` or ``float``, then
    every check in order."""
    lines = decode_utf8(data, "model file:").splitlines()
    if not lines:
        raise DataError("model file: empty stream")
    head = lines[0].split(" ")
    if head[0] != "LCPMODEL":
        raise DataError(f"model file: bad magic header {lines[0]!r}")
    if head[1:] != ["1"]:
        raise DataError(f"model file: unsupported format version {lines[0]!r}")
    if len(lines) < 2 or lines[1] != "[schema]":
        raise DataError("model file: missing [schema] section")
    try:
        at = lines.index("[config]", 2)
    except ValueError:
        raise DataError("model file: missing [config] section") from None
    names = lines[2:at]
    if any(name.startswith("[tree") for name in names):
        raise DataError("model file: missing [config] section")
    if not names:
        raise DataError("model file: empty schema")
    end = next((pos for pos in range(at + 1, len(lines)) if lines[pos][:1] == "["), len(lines))
    pairs: dict[str, str] = {}
    for line in lines[at + 1 : end]:
        key, sep, val = line.partition("=")
        if not sep:
            raise DataError(f"model file: bad config line {line!r}")
        pairs[key] = val
    config = _parse_config_lines(pairs)
    if end < len(lines) and lines[end] != "[tree 0]":
        raise DataError(f"model file line {end + 1}: unexpected section {lines[end]!r}")
    heads: list[int] = []
    for i in range(config.n_trees):
        try:
            heads.append(lines.index(f"[tree {i}]", heads[-1] + 1 if heads else end))
        except ValueError:
            raise DataError(f"model file: truncated, expected [tree {i}]") from None
    sizes = np.diff(heads + [len(lines)]) - 1
    empty = np.flatnonzero(sizes == 0)
    if empty.size:
        raise DataError(f"model file: [tree {empty[0]}] has no nodes")
    trees = [
        _reference_tree(lines[pos + 1 : pos + 1 + size], i, pos + 1, len(names))
        for i, (pos, size) in enumerate(zip(heads, sizes.tolist()))
    ]
    return RandomForest.from_trees(trees, config, names)


def _reference_tree(lines: list[str], i: int, first: int, d: int) -> Tree:
    n = len(lines)
    widths = np.fromiter(map(str.count, lines, repeat(" ")), np.intp, n) + 1
    tokens = np.array(" ".join(lines).split(" "), dtype=object)
    starts = np.cumsum(widths) - widths
    leaf = (tokens[starts] == "L") & (widths == 2)
    split = (tokens[starts] == "N") & (widths == 5)
    bad = np.flatnonzero(~(leaf | split))
    if bad.size:
        raise DataError(f"model file line {first + bad[0] + 1}: bad node line {lines[bad[0]]!r}")
    try:
        feature, left, right = (np.fromiter(map(int, tokens[starts[split] + k]), np.int64) for k in (1, 3, 4))
        threshold = np.fromiter(map(float, tokens[starts[split] + 2]), np.float64)
        value = np.fromiter(map(float, tokens[starts[leaf] + 1]), np.float64)
    except (ValueError, OverflowError) as exc:
        raise DataError(f"model file: [tree {i}] has a bad node line: {exc}") from None
    ids = np.flatnonzero(split)
    bad = np.flatnonzero((feature < 0) | (feature >= d))
    if bad.size:
        raise DataError(f"model file line {first + ids[bad[0]] + 1}: feature index {feature[bad[0]]} out of range")
    for child in (left, right):
        bad = np.flatnonzero((child <= ids) | (child >= n))
        if bad.size:
            raise DataError(f"model file: [tree {i}] node {ids[bad[0]]} has bad child index {child[bad[0]]}")
    if not (np.isfinite(threshold).all() and np.isfinite(value).all()):
        raise DataError(f"model file: [tree {i}] has a non-finite threshold or leaf value")
    parents = np.bincount(np.concatenate([left, right]), minlength=n)
    bad = np.flatnonzero(parents[1:] != 1) + 1
    if bad.size:
        raise DataError(f"model file: [tree {i}] node {bad[0]} has {parents[bad[0]]} parents, expected 1")
    bad = np.flatnonzero(left != ids + 1)
    if bad.size:
        raise DataError(
            f"model file: [tree {i}] node {ids[bad[0]]} has left child {left[bad[0]]}, not the next node;"
            " nodes must be in pre-order"
        )
    columns = [np.full(n, -1), np.full(n, np.inf), np.arange(n), np.arange(n), np.zeros(n)]
    for column, parsed in zip(columns, (feature, threshold, left, right)):
        column[split] = parsed
    columns[4][leaf] = value
    return Tree(*columns)


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
