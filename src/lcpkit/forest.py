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
from dataclasses import dataclass, field, fields
from functools import cached_property
from typing import IO, NamedTuple, Sequence

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
    """A regression tree as parallel arrays over pre-order node ids.

    ``feature[i] == -1`` marks node i as a leaf carrying ``value[i]``; internal
    nodes route rows with ``x[feature] <= threshold`` to ``left`` and the rest
    to ``right``.
    """

    __slots__ = ("feature", "threshold", "left", "right", "value")

    def __init__(self, feature, threshold, left, right, value):
        self.feature = np.asarray(feature, dtype=np.int32)
        self.threshold = np.asarray(threshold, dtype=np.float64)
        self.left = np.asarray(left, dtype=np.int32)
        self.right = np.asarray(right, dtype=np.int32)
        self.value = np.asarray(value, dtype=np.float64)

    @property
    def n_nodes(self) -> int:
        return int(self.feature.size)


class _Nodes(NamedTuple):
    """Every node of a forest in one table, trees one after another, with
    ``Tree``'s dtypes.

    ``left`` and ``right`` hold table positions, ``roots`` the position of
    each tree's root in tree order. Leaves have ``feature == -1``.
    """

    feature: np.ndarray
    threshold: np.ndarray
    left: np.ndarray
    right: np.ndarray
    value: np.ndarray
    roots: np.ndarray


def _flatten(trees: Sequence[Tree]) -> _Nodes:
    sizes = [tree.n_nodes for tree in trees]
    roots = np.cumsum([0, *sizes[:-1]], dtype=np.int32)
    offset = np.repeat(roots, sizes)

    def joined(name: str) -> np.ndarray:
        return np.concatenate([getattr(tree, name) for tree in trees])

    feature = joined("feature")
    left, right = (np.where(feature >= 0, joined(side) + offset, -1) for side in ("left", "right"))
    return _Nodes(feature, joined("threshold"), left, right, joined("value"), roots)


@dataclass
class RandomForest:
    trees: list[Tree]
    config: ForestConfig
    feature_names: list[str]
    schema_fingerprint: str = field(init=False)

    def __post_init__(self):
        self.schema_fingerprint = columns_fingerprint(self.feature_names)

    @cached_property
    def nodes(self) -> _Nodes:
        """All trees in one node table, built on the first prediction; the
        trees must not change after that."""
        return _flatten(self.trees)

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

    feature: list[int] = []
    threshold: list[float] = []
    left: list[int] = []
    right: list[int] = []
    value: list[float] = []

    # Explicit stack; children pushed right-then-left so nodes are created in
    # pre-order, which also fixes the rng consumption order.
    stack = [(root_idx, 0, -1, False)]
    while stack:
        sample_idx, depth, parent, is_right = stack.pop()
        node_id = len(feature)
        feature.append(-1)
        threshold.append(0.0)
        left.append(-1)
        right.append(-1)
        value.append(0.0)
        if parent >= 0:
            if is_right:
                right[parent] = node_id
            else:
                left[parent] = node_id

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
            value[node_id] = ymin if ymin == ymax else float(ysub.mean())
            continue
        f, thr = split
        feature[node_id] = f
        threshold[node_id] = thr
        mask = X[sample_idx, f] <= thr
        stack.append((sample_idx[~mask], depth + 1, node_id, True))
        stack.append((sample_idx[mask], depth + 1, node_id, False))

    return Tree(feature, threshold, left, right, value)


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
    return RandomForest(trees=trees, config=config, feature_names=feature_names)


def _leaves(nodes: _Nodes, X: np.ndarray) -> np.ndarray:
    """The leaf each (tree, row) pair reaches, shape (trees, rows).

    All pairs descend together, one level per step; a pair that reaches a
    leaf leaves the active set.
    """
    rows, d = X.shape
    flat = X.ravel()
    node = np.repeat(nodes.roots, rows)
    row_start = np.tile(np.arange(rows, dtype=np.intp) * d, nodes.roots.size)
    active = np.flatnonzero(nodes.feature[node] >= 0)
    while active.size:
        cur = node[active]
        go_left = flat[row_start[active] + nodes.feature[cur]] <= nodes.threshold[cur]
        nxt = np.where(go_left, nodes.left[cur], nodes.right[cur])
        node[active] = nxt
        active = active[nodes.feature[nxt] >= 0]
    return node.reshape(nodes.roots.size, rows)


def predict_batch(model: RandomForest, X) -> np.ndarray:
    """Mean of the individual tree outputs for each row of a 2-D ``X``. Raw,
    unclamped. A single row is scored as a one-row ``X``.

    Leaf values are summed in tree order, so a row's result does not depend
    on the rows scored with it.
    """
    X = _check_matrix(X)
    if X.shape[1] != model.n_features:
        raise ValueError(f"expected {model.n_features} features, got {X.shape[1]}")
    nodes = model.nodes
    n_trees = nodes.roots.size
    block = max(1, _PAIRS_PER_BLOCK // n_trees)
    acc = np.zeros(X.shape[0], dtype=np.float64)
    for start in range(0, X.shape[0], block):
        out = acc[start : start + block]
        for values in nodes.value[_leaves(nodes, X[start : start + block])]:
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
        for node in range(tree.n_nodes):
            if tree.feature[node] < 0:
                lines.append(f"L {float(tree.value[node])!r}")
            else:
                lines.append(
                    f"N {int(tree.feature[node])} {float(tree.threshold[node])!r}"
                    f" {int(tree.left[node])} {int(tree.right[node])}"
                )
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

    pos = 2
    names: list[str] = []
    while pos < len(lines) and lines[pos] != "[config]":
        if lines[pos].startswith("[tree"):
            raise DataError("model file: missing [config] section")
        names.append(lines[pos])
        pos += 1
    if pos >= len(lines):
        raise DataError("model file: truncated before [config]")
    if not names:
        raise DataError("model file: empty schema")
    pos += 1

    pairs: dict[str, str] = {}
    while pos < len(lines) and not lines[pos].startswith("["):
        key, sep, val = lines[pos].partition("=")
        if not sep:
            raise DataError(f"model file: bad config line {lines[pos]!r}")
        pairs[key] = val
        pos += 1
    config = _parse_config_lines(pairs)

    d = len(names)
    trees: list[Tree] = []
    for i in range(config.n_trees):
        if pos >= len(lines) or lines[pos] != f"[tree {i}]":
            raise DataError(f"model file: truncated, expected [tree {i}]")
        pos += 1
        feature: list[int] = []
        threshold: list[float] = []
        left: list[int] = []
        right: list[int] = []
        value: list[float] = []
        while pos < len(lines) and not lines[pos].startswith("["):
            parts = lines[pos].split(" ")
            try:
                if parts[0] == "L" and len(parts) == 2:
                    feature.append(-1)
                    threshold.append(0.0)
                    left.append(-1)
                    right.append(-1)
                    value.append(float(parts[1]))
                elif parts[0] == "N" and len(parts) == 5:
                    f = int(parts[1])
                    if not 0 <= f < d:
                        raise DataError(
                            f"model file line {pos + 1}: feature index {f} out of range"
                        )
                    feature.append(f)
                    threshold.append(float(parts[2]))
                    left.append(int(parts[3]))
                    right.append(int(parts[4]))
                    value.append(0.0)
                else:
                    raise ValueError
            except ValueError:
                raise DataError(f"model file line {pos + 1}: bad node line {lines[pos]!r}") from None
            pos += 1
        n_nodes = len(feature)
        if n_nodes == 0:
            raise DataError(f"model file: [tree {i}] has no nodes")
        for node in range(n_nodes):
            if feature[node] >= 0:
                for child in (left[node], right[node]):
                    # pre-order: children always come after their parent
                    if not node < child < n_nodes:
                        raise DataError(
                            f"model file: [tree {i}] node {node} has bad child index {child}"
                        )
        tree = Tree(feature, threshold, left, right, value)
        # fit only ever writes finite thresholds and leaf values
        if not (np.isfinite(tree.threshold).all() and np.isfinite(tree.value).all()):
            raise DataError(f"model file: [tree {i}] has a non-finite threshold or leaf value")
        # With children after parents, one parent per non-root node makes
        # every node reachable from the root exactly once.
        internal = tree.feature >= 0
        parents = np.bincount(np.concatenate([tree.left[internal], tree.right[internal]]), minlength=n_nodes)
        bad = np.flatnonzero(parents[1:] != 1) + 1
        if bad.size:
            raise DataError(
                f"model file: [tree {i}] node {bad[0]} has {parents[bad[0]]} parents, expected 1"
            )
        trees.append(tree)
    if pos != len(lines):
        raise DataError(f"model file: unexpected trailing content at line {pos + 1}")
    return RandomForest(trees=trees, config=config, feature_names=names)
