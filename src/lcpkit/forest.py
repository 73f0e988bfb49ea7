"""From-scratch random forest regressor built on CART regression trees.

Trees are grown greedily: at each node a subset of feature indices is sampled
without replacement and the split minimizing the summed squared error of the
two children (equivalently, the weighted child target variance) is chosen
over all midpoints between consecutive distinct sorted feature values. Ties
are broken toward the lower feature index, then the lower threshold.

Determinism: tree t draws from its own generator seeded with
``derive_seed(config.seed, t)``, so results are independent of whether trees
are built sequentially or in parallel. Within a tree the generator is consumed
in node pre-order (bootstrap indices first, then one feature draw per split
attempt when fewer than all features are sampled).
"""

from __future__ import annotations

import hashlib
import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, fields
from itertools import repeat
from typing import IO, Sequence

import numpy as np

from .errors import DataError, decode_utf8

_MAGIC = "LCPMODEL"
_VERSION = 1
_SEED_MULTIPLIER = 1_000_003
_SEED_MASK = (1 << 64) - 1
#: (tree, row) pairs walked at once: rows are scored in blocks of
#: ``_PAIRS_PER_BLOCK // n_trees`` so the traversal arrays stay bounded.
_PAIRS_PER_BLOCK = 1 << 18


def derive_seed(seed: int, tree_index: int) -> int:
    """Per-tree seed: seed * 1000003 + tree_index in wrapping 64-bit arithmetic."""
    return (seed * _SEED_MULTIPLIER + tree_index) & _SEED_MASK


def columns_fingerprint(names: Sequence[str]) -> str:
    """Stable hash of an ordered feature column name list."""
    return hashlib.sha256("\n".join(names).encode("utf-8")).hexdigest()


@dataclass(frozen=True)
class ForestConfig:
    n_trees: int = 120
    max_features_per_split: int = 750
    min_samples_leaf: int = 1
    min_samples_split: int = 2
    max_depth: int | None = None
    bootstrap: bool = True
    seed: int = 0

    def __post_init__(self):
        if self.n_trees < 1:
            raise ValueError(f"n_trees must be >= 1, got {self.n_trees}")
        if self.max_features_per_split < 1:
            raise ValueError(f"max_features_per_split must be >= 1, got {self.max_features_per_split}")
        if self.min_samples_leaf < 1:
            raise ValueError(f"min_samples_leaf must be >= 1, got {self.min_samples_leaf}")
        if self.min_samples_split < 2:
            raise ValueError(f"min_samples_split must be >= 2, got {self.min_samples_split}")
        if self.max_depth is not None and self.max_depth < 0:
            raise ValueError(f"max_depth must be None or >= 0, got {self.max_depth}")


class Tree:
    """Nodes of a regression tree as parallel arrays over pre-order node ids.

    ``feature[i] == -1`` marks node i as a leaf carrying ``value[i]``; internal
    nodes route rows with ``x[feature] <= threshold`` to ``left`` and the rest
    to ``right``, numbered within the tree. A forest keeps all its trees in
    one such table, one after another.
    """

    __slots__ = ("feature", "threshold", "left", "right", "value")
    _DTYPES = (np.int32, np.float64, np.int32, np.int32, np.float64)

    def __init__(self, feature, threshold, left, right, value):
        for name, dtype, column in zip(self.__slots__, self._DTYPES, (feature, threshold, left, right, value)):
            setattr(self, name, np.asarray(column, dtype=dtype))

    @property
    def n_nodes(self) -> int:
        return int(self.feature.size)

    def part(self, start: int, stop: int) -> Tree:
        """Nodes ``start`` to ``stop - 1``, sharing this table's arrays."""
        return Tree(*(getattr(self, name)[start:stop] for name in self.__slots__))


class RandomForest:
    """A fitted forest: all its nodes in one read-only table, ``nodes``.

    Tree t fills the table from position ``roots[t]`` up to the next tree's
    root.
    """

    def __init__(self, nodes: Tree, roots, config: ForestConfig, feature_names: Sequence[str]):
        for name in Tree.__slots__:
            getattr(nodes, name).flags.writeable = False
        self.nodes = nodes
        self.roots = np.asarray(roots, dtype=np.int32)
        self.config = config
        self.feature_names = list(feature_names)
        self.schema_fingerprint = columns_fingerprint(self.feature_names)

    @classmethod
    def from_trees(cls, trees: Sequence[Tree], config: ForestConfig, feature_names: Sequence[str]) -> RandomForest:
        """The forest of ``trees``, their nodes copied into one table in order."""
        nodes = Tree(*(np.concatenate([getattr(tree, name) for tree in trees]) for name in Tree.__slots__))
        return cls(nodes, np.cumsum([0, *(tree.n_nodes for tree in trees[:-1])]), config, feature_names)

    @property
    def trees(self) -> list[Tree]:
        """Each tree as a view of the table."""
        bounds = [*self.roots.tolist(), self.nodes.n_nodes]
        return [self.nodes.part(start, stop) for start, stop in zip(bounds, bounds[1:])]

    @property
    def n_features(self) -> int:
        return len(self.feature_names)


def _best_split(X, y, sample_idx, feats, min_samples_leaf):
    """Exhaustive variance-reduction search over the sampled features.

    Returns (feature_index, threshold) or None when no valid candidate exists.
    Candidate thresholds are midpoints between consecutive distinct sorted
    values; the minimizer of summed child SSE wins, ties going to the lower
    feature index then the lower threshold (feats must be sorted ascending).
    """
    m = sample_idx.size
    k = feats.size
    ysub = y[sample_idx]
    Xs = X[np.ix_(sample_idx, feats)]
    order = np.argsort(Xs, axis=0, kind="stable")
    xs = np.take_along_axis(Xs, order, axis=0)
    ys = ysub[order]
    c1 = np.cumsum(ys, axis=0)[:-1]
    c2 = np.cumsum(ys * ys, axis=0)[:-1]
    # Node totals are computed once so identical partitions reached through
    # different features score identically.
    t1 = float(np.sum(ysub))
    t2 = float(np.sum(ysub * ysub))
    nl = np.arange(1, m, dtype=np.float64)[:, None]
    nr = float(m) - nl
    sse = (c2 - c1 * c1 / nl) + ((t2 - c2) - (t1 - c1) * (t1 - c1) / nr)
    valid = xs[:-1] != xs[1:]
    if min_samples_leaf > 1:
        valid &= (nl >= min_samples_leaf) & (nr >= min_samples_leaf)
    sse = np.where(valid, sse, np.inf)
    best_pos = np.argmin(sse, axis=0)
    best_sse = sse[best_pos, np.arange(k)]
    j = int(np.argmin(best_sse))
    if not math.isfinite(best_sse[j]):
        return None
    p = int(best_pos[j])
    a = float(xs[p, j])
    b = float(xs[p + 1, j])
    thr = (a + b) / 2.0
    if thr >= b:  # midpoint rounded onto the right value; keep the cut below b
        thr = a
    return int(feats[j]), thr


def _grow_tree(X, y, config: ForestConfig, rng: np.random.Generator) -> Tree:
    n, d = X.shape
    if config.bootstrap:
        root_idx = rng.integers(0, n, size=n)
    else:
        root_idx = np.arange(n)
    k = min(config.max_features_per_split, d)
    all_feats = np.arange(d)

    # One row per node, in Tree's column order: feature, threshold, left,
    # right, value. Explicit stack; children pushed right-then-left so nodes
    # are created in pre-order, which also fixes the rng consumption order.
    # An entry names the parent row and the column that links it to the node.
    rows: list[list] = []
    stack = [(root_idx, 0, None, 0)]
    while stack:
        sample_idx, depth, parent, column = stack.pop()
        if parent is not None:
            parent[column] = len(rows)
        row = [-1, 0.0, -1, -1, 0.0]
        rows.append(row)

        ysub = y[sample_idx]
        m = sample_idx.size
        ymin = float(ysub.min())
        ymax = float(ysub.max())
        split = None
        if (
            m >= config.min_samples_split
            and (config.max_depth is None or depth < config.max_depth)
            and ymin != ymax
        ):
            feats = all_feats if k >= d else np.sort(rng.choice(d, size=k, replace=False))
            split = _best_split(X, y, sample_idx, feats, config.min_samples_leaf)
        if split is None:
            # constant targets keep their exact value; otherwise the mean
            row[4] = ymin if ymin == ymax else float(ysub.mean())
            continue
        row[0], row[1] = split
        mask = X[sample_idx, row[0]] <= row[1]
        stack.append((sample_idx[~mask], depth + 1, row, 3))
        stack.append((sample_idx[mask], depth + 1, row, 2))
    return Tree(*zip(*rows))


def _check_matrix(X) -> np.ndarray:
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2:
        raise ValueError(f"X must be 2-dimensional, got shape {X.shape}")
    if not np.all(np.isfinite(X)):
        raise ValueError("X contains non-finite values")
    return X


def fit(
    X,
    y,
    config: ForestConfig,
    feature_names: Sequence[str] | None = None,
    n_threads: int = 1,
) -> RandomForest:
    """Train a forest of ``config.n_trees`` CART trees.

    Each tree is grown on a bootstrap sample of size n (drawn with replacement
    from its own derived seed) unless ``config.bootstrap`` is off. Results are
    identical for a fixed (X, y, config) regardless of ``n_threads``.
    """
    X = _check_matrix(X)
    y = np.asarray(y, dtype=np.float64)
    n, d = X.shape
    if n == 0:
        raise ValueError("cannot fit on an empty sample")
    if d == 0:
        raise ValueError("cannot fit with zero features")
    if y.shape != (n,):
        raise ValueError(f"y must have shape ({n},), got {y.shape}")
    if not np.all(np.isfinite(y)):
        raise ValueError("y contains non-finite values")
    if feature_names is None:
        feature_names = [f"f{i}" for i in range(d)]
    else:
        feature_names = list(feature_names)
        if len(feature_names) != d:
            raise ValueError(f"expected {d} feature names, got {len(feature_names)}")

    def build(t: int) -> Tree:
        rng = np.random.default_rng(derive_seed(config.seed, t))
        return _grow_tree(X, y, config, rng)

    if n_threads == 0:
        n_threads = os.cpu_count() or 1
    with ThreadPoolExecutor(max_workers=n_threads) as pool:
        trees = list(pool.map(build, range(config.n_trees)))
    return RandomForest.from_trees(trees, config, feature_names)


def _leaves(model: RandomForest, X: np.ndarray) -> np.ndarray:
    """The table position of the leaf each (tree, row) pair reaches, shape
    (trees, rows).

    All pairs descend together, one level per step; a pair that reaches a
    leaf leaves the active set.
    """
    nodes = model.nodes
    rows, d = X.shape
    flat = X.ravel()
    root = np.repeat(model.roots, rows)
    node = root.copy()
    row_start = np.tile(np.arange(rows, dtype=np.intp) * d, model.roots.size)
    active = np.flatnonzero(nodes.feature[node] >= 0)
    while active.size:
        cur = node[active]
        go_left = flat[row_start[active] + nodes.feature[cur]] <= nodes.threshold[cur]
        nxt = np.where(go_left, nodes.left[cur], nodes.right[cur])
        nxt += root[active]  # children are numbered within their tree
        node[active] = nxt
        active = active[nodes.feature[nxt] >= 0]
    return node.reshape(model.roots.size, rows)


def predict_batch(model: RandomForest, X) -> np.ndarray:
    """Mean of the individual tree outputs for each row of a 2-D ``X``. Raw,
    unclamped. A single row is scored as a one-row ``X``.

    Leaf values are summed in tree order, so a row's result does not depend
    on the rows scored with it.
    """
    X = _check_matrix(X)
    if X.shape[1] != model.n_features:
        raise ValueError(f"expected {model.n_features} features, got {X.shape[1]}")
    n_trees = model.roots.size
    block = max(1, _PAIRS_PER_BLOCK // n_trees)
    acc = np.zeros(X.shape[0], dtype=np.float64)
    for start in range(0, X.shape[0], block):
        out = acc[start : start + block]
        for values in model.nodes.value[_leaves(model, X[start : start + block])]:
            out += values
    return acc / n_trees


def save_model(model: RandomForest, sink: IO[bytes]) -> None:
    """Write the line-oriented text model format (canonical, byte-stable)."""
    lines = [f"{_MAGIC} {_VERSION}", "[schema]"]
    lines.extend(model.feature_names)
    lines.append("[config]")
    for f in fields(ForestConfig):
        value = getattr(model.config, f.name)
        if value is None:
            value = "none"
        elif isinstance(value, bool):
            value = "true" if value else "false"
        lines.append(f"{f.name}={value}")
    for i, tree in enumerate(model.trees):
        lines.append(f"[tree {i}]")
        columns = (getattr(tree, name).tolist() for name in Tree.__slots__)
        for f, thr, left, right, value in zip(*columns):
            lines.append(f"L {value!r}" if f < 0 else f"N {f} {thr!r} {left} {right}")
    sink.write(("\n".join(lines) + "\n").encode("utf-8"))


#: How a model file's ``[config]`` value is read, by the ForestConfig field's annotation.
_CONFIG_PARSERS = {
    "int": int,
    "bool": {"true": True, "false": False}.__getitem__,
    "int | None": lambda raw: None if raw == "none" else int(raw),
}


def _parse_config_lines(pairs: dict[str, str]) -> ForestConfig:
    missing = {f.name for f in fields(ForestConfig)} - pairs.keys()
    if missing:
        raise DataError(f"model file: missing config keys {sorted(missing)}")
    try:
        return ForestConfig(**{f.name: _CONFIG_PARSERS[f.type](pairs[f.name]) for f in fields(ForestConfig)})
    except (ValueError, KeyError) as exc:
        raise DataError(f"model file: bad config value: {exc}") from None


def _parse_tree(lines: list[str], i: int, first: int, d: int, out: Tree) -> None:
    """Check the node lines of section ``[tree i]``, the first of them at file
    line index ``first``, and write the tree into ``out``.

    A node line is ``L value`` or ``N feature threshold left right``.
    """
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
        # pre-order: children always come after their parent
        bad = np.flatnonzero((child <= ids) | (child >= n))
        if bad.size:
            raise DataError(f"model file: [tree {i}] node {ids[bad[0]]} has bad child index {child[bad[0]]}")
    # fit only ever writes finite thresholds and leaf values
    if not (np.isfinite(threshold).all() and np.isfinite(value).all()):
        raise DataError(f"model file: [tree {i}] has a non-finite threshold or leaf value")
    # With children after parents, one parent per non-root node makes every
    # node reachable from the root exactly once.
    parents = np.bincount(np.concatenate([left, right]), minlength=n)
    bad = np.flatnonzero(parents[1:] != 1) + 1
    if bad.size:
        raise DataError(f"model file: [tree {i}] node {bad[0]} has {parents[bad[0]]} parents, expected 1")
    out.feature[:] = out.left[:] = out.right[:] = -1
    out.threshold[:] = out.value[:] = 0.0
    out.feature[split], out.threshold[split], out.left[split], out.right[split] = feature, threshold, left, right
    out.value[leaf] = value


def load_model(source: IO[bytes] | bytes) -> RandomForest:
    """Parse a model stream produced by save_model. Raises DataError on any
    format violation (bad magic, version mismatch, truncation, bad indices)."""
    lines = decode_utf8(source, "model file:").splitlines()
    if not lines:
        raise DataError("model file: empty stream")
    head = lines[0].split(" ")
    if head[0] != _MAGIC:
        raise DataError(f"model file: bad magic header {lines[0]!r}")
    if head[1:] != [str(_VERSION)]:
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

    # Every line after [config] that starts with "[" opens a tree section.
    bounds = [pos for pos, line in enumerate(lines[at + 1 :], at + 1) if line[:1] == "["] + [len(lines)]
    pairs: dict[str, str] = {}
    for line in lines[at + 1 : bounds[0]]:
        key, sep, val = line.partition("=")
        if not sep:
            raise DataError(f"model file: bad config line {line!r}")
        pairs[key] = val
    config = _parse_config_lines(pairs)
    heads = bounds[:-1]
    for i, pos in enumerate(heads):
        if i >= config.n_trees or lines[pos] != f"[tree {i}]":
            raise DataError(f"model file line {pos + 1}: unexpected section {lines[pos]!r}")
    if len(heads) < config.n_trees:
        raise DataError(f"model file: truncated, expected [tree {len(heads)}]")

    sizes = np.diff(bounds) - 1
    empty = np.flatnonzero(sizes == 0)
    if empty.size:
        raise DataError(f"model file: [tree {empty[0]}] has no nodes")
    roots = np.cumsum(sizes) - sizes
    nodes = Tree(*(np.empty(int(sizes.sum()), dtype) for dtype in Tree._DTYPES))
    for i, (pos, root, size) in enumerate(zip(heads, roots.tolist(), sizes.tolist())):
        _parse_tree(lines[pos + 1 : pos + 1 + size], i, pos + 1, len(names), nodes.part(root, root + size))
    return RandomForest(nodes, roots, config, names)
