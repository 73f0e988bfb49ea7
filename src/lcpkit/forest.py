"""From-scratch random forest regressor built on CART regression trees.

Trees are grown greedily: at each node a subset of feature indices is sampled
without replacement and the split minimizing the summed squared error of the
two children (equivalently, the weighted child target variance) is chosen
over all midpoints between consecutive distinct sorted feature values. Ties
are broken toward the lower feature index, then the lower threshold.

The search is screened: features with few distinct values are scored at
every boundary by one matrix product per node, and only those whose score
comes within a rounding bound of the best go, with every many-valued
feature, to the exhaustive search (``_best_split``). The result is the
exhaustive search's, bit for bit (see ``_Screen.split``).

Determinism: tree t draws from its own generator seeded with
``derive_seed(config.seed, t)``, so results are independent of whether trees
are built one after another or in parallel worker processes. Within a tree
the generator is consumed in node pre-order (bootstrap indices first, then
one feature draw per split attempt when fewer than all features are
sampled).
"""

from __future__ import annotations

import math
import multiprocessing
import os
import re
from concurrent.futures import BrokenExecutor, ProcessPoolExecutor
from dataclasses import dataclass, fields
from typing import IO, Callable, Sequence

import numpy as np

from .errors import DataError, ResourceError, decode_utf8

_MAGIC = "LCPMODEL"
_VERSION = 1
_SEED_MULTIPLIER = 1_000_003
_SEED_MASK = (1 << 64) - 1
#: (tree, row) pairs walked together: r rows walk
#: ``max(1, _PAIRS_PER_GROUP // r)`` trees at a time, so a large batch walks
#: one tree's slice of the node table (about 100 KB) at a time and a single
#: row walks every tree at once.
_PAIRS_PER_GROUP = 1 << 13
#: Levels walked between two checks for pairs that have reached a leaf.
_LEVELS_PER_CHECK = 8


def derive_seed(seed: int, tree_index: int) -> int:
    """Per-tree seed: seed * 1000003 + tree_index in wrapping 64-bit arithmetic."""
    return (seed * _SEED_MULTIPLIER + tree_index) & _SEED_MASK


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

    In memory both children of node i are ``child[i] = (left, right)``, and a
    leaf has threshold +inf and itself as both children. So for any node,
    ``child[i, x[feature[i]] > threshold[i]]`` is the next node, and a walk
    that has reached a leaf stays there.
    """

    __slots__ = ("feature", "threshold", "child", "value")

    def __init__(self, feature, threshold, left, right, value):
        """The tree of the given columns; leaves' threshold, left and right are ignored."""
        self.feature = np.asarray(feature, dtype=np.int32)
        leaf = self.feature < 0
        self.threshold = np.where(leaf, np.inf, np.asarray(threshold, dtype=np.float64))
        self.child = np.column_stack([left, right]).astype(np.int32)
        self.child[leaf] = np.flatnonzero(leaf)[:, None]
        self.value = np.asarray(value, dtype=np.float64)

    @classmethod
    def of_table(cls, feature, threshold, child, value) -> Tree:
        """The tree whose arrays are the given ones, already in the in-memory form."""
        tree = cls.__new__(cls)
        tree.feature, tree.threshold, tree.child, tree.value = feature, threshold, child, value
        return tree

    @property
    def left(self) -> np.ndarray:
        return self.child[:, 0]

    @property
    def right(self) -> np.ndarray:
        return self.child[:, 1]

    @property
    def n_nodes(self) -> int:
        return int(self.feature.size)

    def part(self, start: int, stop: int) -> Tree:
        """Nodes ``start`` to ``stop - 1``, sharing this table's arrays."""
        return Tree.of_table(*(getattr(self, name)[start:stop] for name in self.__slots__))


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

    @classmethod
    def from_trees(cls, trees: Sequence[Tree], config: ForestConfig, feature_names: Sequence[str]) -> RandomForest:
        """The forest of ``trees``, their nodes copied into one table in order."""
        nodes = Tree.of_table(*(np.concatenate([getattr(tree, name) for tree in trees]) for name in Tree.__slots__))
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


#: Features with at most this many boundaries between distinct values are
#: screened; features with more always go to the exact search.
_SCREEN_MAX_BOUNDARIES = 16
#: Cap on the boundary indicator matrix; past it, the features with the
#: fewest boundaries are screened and the rest go to the exact search.
_SCREEN_MAX_BYTES = 1 << 28
_U = 2.0**-53  # unit roundoff of float64


def _gamma(k: int) -> float:
    """Bound on the relative error of a float sum of k terms, in any order."""
    return k * _U / (1.0 - k * _U)


class _Screen:
    """Per-fit data of the screened split search, shared by the fit workers.

    ``ind[:, b]`` is 1.0 where ``X[:, feature[b]] <= value`` for boundary b,
    one boundary below each distinct value but the largest of every screened
    feature, in feature order. A node carries ``(act, sums, err)``: the
    boundaries that cut it (a boundary that cuts no row off a node cuts none
    off its children either), their left counts (exact) and left target
    sums (each within ``err`` of its exact value), from one product
    ``[1, y][rows].T @ ind[rows, act]``.
    """

    def __init__(self, X: np.ndarray, y: np.ndarray, min_samples_leaf: int):
        self.X, self.y, self.min_samples_leaf = X, y, min_samples_leaf
        n, d = X.shape
        # rows with byte-identical features share a label; a node of one
        # label has no feature to split on
        rows = np.ascontiguousarray(X).view(np.dtype((np.void, d * X.itemsize))).ravel()
        self.row_label = np.unique(rows, return_inverse=True)[1].ravel()
        xs = X.T.copy()
        xs.sort(axis=1)
        new = xs[:, 1:] != xs[:, :-1]
        width = new.sum(axis=1)  # boundaries per feature
        cand = np.flatnonzero((width >= 1) & (width <= _SCREEN_MAX_BOUNDARIES))
        by_width = cand[np.argsort(width[cand], kind="stable")]
        cols = np.sort(by_width[np.cumsum(width[by_width]) * (8 * n) <= _SCREEN_MAX_BYTES])
        # constant features never split, so they are neither screened nor exact
        self.exact = np.setdiff1d(np.flatnonzero(width), cols)
        self.feature, pos = np.nonzero(new[cols])
        self.feature = cols[self.feature]
        self.ind = X.take(self.feature, axis=1)
        np.less_equal(self.ind, xs[self.feature, pos], out=self.ind)
        self.ones_y = np.column_stack([np.ones(n), y])

    def _sums(self, idx: np.ndarray, act: np.ndarray) -> np.ndarray:
        """Left counts and target sums of boundaries ``act`` over rows ``idx``.

        A large sample is summed over all rows, weighted by how often each
        occurs, rather than gathered; either way each sum has at most
        ``idx.size`` nonzero terms, each rounded at most once.
        """
        n = self.ind.shape[0]
        if idx.size * 8 > n:
            return (self.ind.T @ (self.ones_y * np.bincount(idx, minlength=n)[:, None])).T[:, act]
        return self.ones_y[idx].T @ self.ind.take(idx, axis=0).take(act, axis=1)

    @staticmethod
    def _cutting(act, sums, m, err):
        """The state of an m-row node: ``act`` and ``sums`` cut down to the
        boundaries that cut it."""
        live = (sums[0] > 0) & (sums[0] < m)
        return act[live], sums[:, live], err

    def root(self, idx: np.ndarray):
        """The screen state of a root over rows ``idx``."""
        act = np.arange(self.feature.size)
        err = _gamma(idx.size + 1) * float(np.abs(self.y[idx]).sum())
        return self._cutting(act, self._sums(idx, act), idx.size, err)

    def children(self, node, left_idx: np.ndarray, right_idx: np.ndarray, total_abs: float):
        """The screen states of a node's two children; ``total_abs`` is the
        sum of |y| over the node. The smaller child's sums come from its
        rows, the larger's are the node's minus the smaller's, and so carry
        the errors of both."""
        act, sums, err = node
        rows = (left_idx, right_idx)
        small = int(right_idx.size < left_idx.size)
        small_sums = self._sums(rows[small], act)
        small_err = _gamma(rows[small].size + 1) * total_abs
        large_err = (err + small_err) * (1.0 + _U) + _U * total_abs
        states = [None, None]
        states[small] = self._cutting(act, small_sums, rows[small].size, small_err)
        states[1 - small] = self._cutting(act, sums - small_sums, rows[1 - small].size, large_err)
        return states

    def split(self, idx, ysub, feats, node, spread):
        """``_best_split(X, y, idx, feats, min_samples_leaf)``, computed by
        running it on a shortlist of the features only.

        ``node`` is the node's screen state and ``spread`` is
        ``(sum y, max |y|, sum |y|)`` over the node.

        The verify step is ``_best_split`` itself, and what it finds for a
        feature depends only on that feature's column: per-column stable
        sorts and sequential cumsums. So the result is the full search's
        whenever the shortlist holds the full search's winner, the lowest
        feature with the smallest computed SSE. The shortlist is every exact
        feature, and every screened feature with a boundary whose screened
        score comes within ``4 * E`` of the best (see ``_screen_bound``): no
        feature left out can reach the winning SSE. Where the bound is not
        trusted, every sampled feature is verified.
        """
        X, y, min_samples_leaf = self.X, self.y, self.min_samples_leaf
        m = idx.size
        total, peak, total_abs = spread
        labels = self.row_label[idx]
        if labels.min() == labels.max():
            return None
        if not (m <= 1 << 30 and 2.0**-400 <= peak <= 2.0**400):
            return _best_split(X, y, idx, feats, min_samples_leaf)
        act, (count, left), err = node
        right = total - left
        n_right = m - count
        score = left * left / count + right * right / n_right
        if min_samples_leaf > 1:
            score[(count < min_samples_leaf) | (n_right < min_samples_leaf)] = -np.inf
        feature = self.feature[act]
        exact = self.exact
        if feats.size < X.shape[1]:
            sampled = np.zeros(X.shape[1], dtype=bool)
            sampled[feats] = True
            exact = exact[sampled[exact]]
            score[~sampled[feature]] = -np.inf
        top = float(score.max(initial=-np.inf))
        keep = np.zeros(0, dtype=np.intp)
        if top > -np.inf:
            floor = top - 4.0 * _screen_bound(m, peak, total_abs, float(ysub @ ysub), err)
            keep = np.unique(feature[score >= floor])
        verify = np.sort(np.concatenate([exact, keep]))
        if not verify.size:
            return None
        return _best_split(X, y, idx, verify, min_samples_leaf)


def _screen_bound(m: int, peak: float, total_abs: float, sum_sq: float, err: float) -> float:
    """E: a bound on how far the screen's and the verify step's SSE for one
    partition of a node can both stray from its exact value, together.

    Over the node's m targets, M = max |y|, A = sum |y|, Q = sum y*y and
    P = M * A; u is the unit roundoff and g = _gamma(m). Any float sum of
    the node's targets is within a = g * A of its exact value, and any sum
    of squares within g * Q. Every term of either SSE formula is at most P
    (|left sum| / n_left <= M, so left_sum**2 / n_left <= M * A), which
    bounds each operation's rounding by u * P.

    - The verify step computes ``c2 - c1**2/nl + ((t2 - c2) - (t1 - c1)**2/nr)``
      from sequential cumsums c1, c2 and totals t1, t2. Carrying the sum
      errors through each operation gives
      ``3 g Q + 6 M a + a**2 + (2 a + u A)**2 + 10 u P``.
    - The screen scores ``left**2/nl + (t1 - left)**2/nr``, which is the
      node's exact sum of squares minus the SSE, from left sums within
      ``err`` and t1 within a. With ``e = a + err + u (A + a + err)``, it is
      off by at most ``err (2 M + err) + e (2 M + e) + 5 u P``.

    These first-order bounds hold for targets of any sign and offset, and
    for any ``min_samples_leaf``, which only removes boundaries from both
    sides alike. The caller doubles E once more: the terms left out are
    products of two errors, each at most m u <= 2**-23 of its first-order
    term, and the doubling covers them and the rounding of this arithmetic.
    With 2**-400 <= M <= 2**400 nothing overflows and underflow is far
    below u * P.
    """
    a = _gamma(m) * total_abs
    p = peak * total_abs
    verify = 3.0 * _gamma(m) * sum_sq + 6.0 * peak * a + a * a + (2.0 * a + _U * total_abs) ** 2 + 10.0 * _U * p
    e = a + err + _U * (total_abs + a + err)
    screen = err * (2.0 * peak + err) + e * (2.0 * peak + e) + 5.0 * _U * p
    return verify + screen


def _grow_tree(X, y, config: ForestConfig, rng: np.random.Generator, screen: _Screen) -> Tree:
    n, d = X.shape
    if config.bootstrap:
        root_idx = rng.integers(0, n, size=n)
    else:
        root_idx = np.arange(n)
    k = min(config.max_features_per_split, d)
    all_feats = np.arange(d)

    def searched(m: int, depth: int) -> bool:
        return m >= config.min_samples_split and (config.max_depth is None or depth < config.max_depth)

    # One row per node, in Tree's column order: feature, threshold, left,
    # right, value. Explicit stack; children pushed right-then-left so nodes
    # are created in pre-order, which also fixes the rng consumption order.
    # An entry names the parent row and the column that links it to the
    # node, and carries the node's screen state.
    rows: list[list] = []
    stack = [(root_idx, 0, None, 0, screen.root(root_idx))]
    while stack:
        sample_idx, depth, parent, column, node = stack.pop()
        if parent is not None:
            parent[column] = len(rows)
        row = [-1, 0.0, -1, -1, 0.0]
        rows.append(row)

        ysub = y[sample_idx]
        m = sample_idx.size
        ymin = float(ysub.min())
        ymax = float(ysub.max())
        split = None
        if searched(m, depth) and ymin != ymax:
            feats = all_feats if k >= d else np.sort(rng.choice(d, size=k, replace=False))
            total = float(ysub.sum())
            total_abs = total if ymin >= 0.0 else float(np.abs(ysub).sum())
            split = screen.split(sample_idx, ysub, feats, node, (total, max(-ymin, ymax), total_abs))
        if split is None:
            # constant targets keep their exact value; otherwise the mean
            row[4] = ymin if ymin == ymax else float(ysub.mean())
            continue
        row[0], row[1] = split
        mask = X[sample_idx, row[0]] <= row[1]
        left_idx, right_idx = sample_idx[mask], sample_idx[~mask]
        left_node = right_node = None
        if searched(left_idx.size, depth + 1) or searched(right_idx.size, depth + 1):
            left_node, right_node = screen.children(node, left_idx, right_idx, total_abs)
        stack.append((right_idx, depth + 1, row, 3, right_node))
        stack.append((left_idx, depth + 1, row, 2, left_node))
    return Tree(*zip(*rows))


def _build(t: int, task: tuple) -> Tree:
    """Tree t of the fit ``task``, ``(X, y, config, screen)``."""
    X, y, config, screen = task
    rng = np.random.default_rng(derive_seed(config.seed, t))
    return _grow_tree(X, y, config, rng, screen)


#: In a worker process, the function and the task ``forked_map`` forked it for.
_worker: tuple = ()


def _start_worker(function: Callable, task) -> None:
    global _worker
    _worker = (function, task)


def _run(i: int):
    function, task = _worker
    return function(i, task)


def forked_map(function: Callable, count: int, workers: int, task) -> list:
    """``[function(i, task) for i in range(count)]``, run by ``workers``
    forked worker processes at once.

    The workers inherit ``function`` and ``task`` through fork, so neither
    is ever pickled: only each ``i`` and its result are. With one worker, or
    where fork is unavailable, everything runs in this process and no
    process is started. An exception raised in a worker reaches the caller
    as itself; a worker that dies (killed, out of memory) raises
    ResourceError. Every worker has exited when this returns or raises.
    """
    if workers <= 1 or "fork" not in multiprocessing.get_all_start_methods():
        return [function(i, task) for i in range(count)]
    context = multiprocessing.get_context("fork")
    results: list = []
    with ProcessPoolExecutor(workers, mp_context=context, initializer=_start_worker, initargs=(function, task)) as pool:
        try:
            results.extend(pool.map(_run, range(count)))
        except BrokenExecutor:
            raise ResourceError(
                f"a worker process died (killed, or out of memory?) before item {len(results)}"
                f" of {count} of {function.__name__} was done"
            ) from None
    return results


def _usable_cpus() -> int:
    """The CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


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
    from its own derived seed) unless ``config.bootstrap`` is off.

    ``n_threads`` trees are grown at once (0: one per usable CPU), each in a
    forked worker process; with one, or where fork is unavailable, they are
    grown in this process and no process is started. Results are identical
    for a fixed (X, y, config) regardless of ``n_threads``.
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
        for j, name in enumerate(feature_names):
            # the model file holds one name per line, and its section heads end the names
            if "".join(name.splitlines()) != name or name == "[config]" or name.startswith("[tree"):
                raise ValueError(f"feature name {j} ({name!r}) cannot be written to a model file")

    if n_threads < 0:
        raise ValueError(f"n_threads must be >= 0 (0 = auto), got {n_threads}")
    task = (X, y, config, _Screen(X, y, config.min_samples_leaf))
    trees = forked_map(_build, config.n_trees, min(n_threads or _usable_cpus(), config.n_trees), task)
    return RandomForest.from_trees(trees, config, feature_names)


def _leaves(nodes: Tree, roots: np.ndarray, X: np.ndarray) -> np.ndarray:
    """The table position of the leaf each (tree, row) pair reaches, shape
    (trees, rows), for the trees at ``roots`` and the rows of the C-ordered
    ``X``.

    All pairs descend together; as leaves step to themselves, the pairs that
    have reached one are dropped only every ``_LEVELS_PER_CHECK`` levels.
    """
    feature, threshold, child = nodes.feature, nodes.threshold, nodes.child.ravel()
    (n_rows, d), n_trees, flat = X.shape, roots.size, X.ravel()
    root = np.repeat(roots.astype(np.intp), n_rows)
    node, offset, pair = root.copy(), np.tile(np.arange(n_rows) * d, n_trees), np.arange(root.size)
    leaf = root.copy()
    index, at, x, thr, right = (
        np.empty(root.size, dtype) for dtype in (np.int32, np.intp, np.float64, np.float64, bool)
    )
    while True:
        live = feature[node] >= 0
        if not live.all():
            leaf[pair] = node
            pair, node, offset, root = pair[live], node[live], offset[live], root[live]
        if not pair.size:
            return leaf.reshape(n_trees, n_rows)
        m = pair.size
        i, a, xv, tv, rv = index[:m], at[:m], x[:m], thr[:m], right[:m]
        # Indices are always in range; mode="wrap" only spares take the copy
        # of ``out`` that mode="raise" makes. A leaf's -1 feature reads some
        # finite cell, which is never above its +inf threshold.
        for _ in range(_LEVELS_PER_CHECK):
            feature.take(node, out=i, mode="wrap")
            np.add(i, offset, out=a)
            flat.take(a, out=xv, mode="wrap")
            threshold.take(node, out=tv, mode="wrap")
            np.greater(xv, tv, out=rv)
            np.add(node, node, out=a)
            np.add(a, rv, out=a)
            child.take(a, out=i, mode="wrap")
            np.add(i, root, out=node)  # children are numbered within their tree


def predict_batch(model: RandomForest, X) -> np.ndarray:
    """Mean of the individual tree outputs for each row of a 2-D ``X``. Raw,
    unclamped. A single row is scored as a one-row ``X``.

    Every row is walked. Leaf values are summed in tree order, so a row's
    result does not depend on the rows scored with it.
    """
    X = np.ascontiguousarray(_check_matrix(X))
    n, d = X.shape
    if d != model.n_features:
        raise ValueError(f"expected {model.n_features} features, got {d}")
    n_trees = model.roots.size
    group = max(1, _PAIRS_PER_GROUP // max(1, n))
    acc = np.zeros((1, n), dtype=np.float64)
    for start in range(0, n_trees, group):
        roots = model.roots[start : start + group]
        leaves = _leaves(model.nodes, roots, X)
        # accumulate adds row after row: the additions of a loop over the trees
        acc = np.add.accumulate(np.vstack([acc, model.nodes.value[leaves]]), axis=0)[-1:]
    return acc[0] / n_trees


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
        columns = (getattr(tree, name).tolist() for name in ("feature", "threshold", "left", "right", "value"))
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


def _put_tree(out: Tree, i: int, first: int, d: int, split, feature, threshold, left, right, value) -> None:
    """Check the parsed nodes of section ``[tree i]``, the first of them at
    file line index ``first``, and write the tree into ``out``.

    ``split`` marks the section's ``N`` lines; ``feature``, ``threshold``,
    ``left`` and ``right`` are theirs and ``value`` is the ``L`` lines'.
    """
    n = split.size
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
    bad = np.flatnonzero(left != ids + 1)
    if bad.size:
        raise DataError(
            f"model file: [tree {i}] node {ids[bad[0]]} has left child {left[bad[0]]}, not the next node;"
            " nodes must be in pre-order"
        )
    out.feature[:], out.threshold[:], out.value[:] = -1, np.inf, 0.0
    out.left[:] = out.right[:] = np.arange(n)
    out.feature[ids], out.threshold[ids], out.left[ids], out.right[ids] = feature, threshold, left, right
    out.value[~split] = value


#: The bytes of the node lines save_model writes, the only ones ``_read_tree`` reads.
_TREE_BYTES = b"0123456789.e+-NL \n"
#: The longest integer ``_read_tree`` reads, in digits: far from int64's limit.
_MAX_DIGITS = 9
#: The integer tokens of an ``N`` line, after its first: feature, left, right.
_INT_TOKENS = np.array([1, 3, 4])
#: A tree section's header line.
_HEADER = re.compile(rb"\[tree [0-9]+\]")


def _read_tree(text: bytes) -> tuple | None:
    """The nodes of a tree section's bytes, each line ending in ``\\n``, read
    from the bytes themselves as ``_put_tree`` takes them, or None for a
    section with a line that is not a node line as save_model writes it:
    ``L F`` or ``N I F I I`` with single spaces, where ``I`` is 1 to
    ``_MAX_DIGITS`` ASCII digits and ``F`` a number ``float`` reads whose
    bytes are all in ``_TREE_BYTES``."""
    if text.translate(None, _TREE_BYTES):
        return None
    sec = np.frombuffer(text, np.uint8)
    # Token k ends at sep[k], a space or the newline that ends its line.
    sep = np.flatnonzero(sec <= ord(" "))
    last = np.flatnonzero(sec[sep] == ord("\n"))  # each line's last token
    first = np.concatenate([[0], last[:-1] + 1])
    starts = np.concatenate([[0], sep[last[:-1]] + 1])  # each line's first byte
    split = last - first == 4
    if not (split | (last - first == 1)).all():
        return None
    # each line's first token is the one byte "N" or "L"
    if not ((sep[first] == starts + 1).all() and (sec[starts] == np.where(split, ord("N"), ord("L"))).all()):
        return None
    # Feature, left and right of each N line, a digit at a time; every byte
    # but those of the numbers float reads becomes a space in ``blank``.
    blank = sec.copy()
    blank[starts] = ord(" ")
    token = first[split, None] + _INT_TOKENS
    end = sep[token]
    start = sep[token - 1] + 1
    width = end - start
    if not ((width >= 1) & (width <= _MAX_DIGITS)).all():
        return None
    ints = np.zeros(token.shape, np.int64)
    digits = 0
    for place in range(int(width.max(initial=0))):
        # past a token's end ``at`` stays on the space or newline after it,
        # so a token is all digits when ``width`` of its bytes read as one
        at = np.minimum(start + place, end)
        digit = sec[at] - np.uint8(ord("0"))
        live = digit <= 9
        digits += np.count_nonzero(live)
        ints = np.where(live, ints * 10 + digit, ints)
        blank[at] = ord(" ")
    if digits != width.sum():
        return None
    feature, left, right = ints.T
    words = blank.tobytes().split()
    if len(words) != split.size:  # a number left empty
        return None
    try:
        number = np.fromiter(map(float, words), np.float64, len(words))
    except ValueError:
        return None
    return split, feature, number[split], left, right, number[~split]


def _parse_head(lines: list[str]) -> tuple[list[str], ForestConfig, int]:
    """The schema and the config of a model file's lines, and the index of
    the line that ends the config, which must open ``[tree 0]``."""
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

    # The config runs to the next section line, which must open [tree 0].
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
    return names, config, end


def _first_bad_line(text: bytes, number: int, headers: bool = False) -> DataError | None:
    """The error for the first line of ``text``, the file's line ``number``
    on, that ``_read_tree`` refuses taken alone and, with ``headers``, that
    is not a ``[tree i]`` header either; None if no line is."""
    for number, line in enumerate(text.split(b"\n")[:-1], number):
        if _read_tree(line + b"\n") is None and not (headers and _HEADER.fullmatch(line)):
            return DataError(f"model file line {number}: bad node line {line.decode('utf-8', 'replace')!r}")
    return None


def load_model(source: IO[bytes] | bytes) -> RandomForest:
    """Parse a model stream produced by save_model. Raises DataError on any
    format violation (bad magic, version mismatch, truncation, bad indices,
    a line in a tree section that is not a node line as save_model writes
    it).

    The head, up to the line ``[tree 0]``, is read as text, and each
    ``[tree i]`` section from its bytes (see ``_read_tree``).
    """
    raw = bytes(source if isinstance(source, (bytes, bytearray)) else source.read())
    data = raw if raw.endswith(b"\n") else raw + b"\n"
    start = data.find(b"\n[tree 0]\n") + 1
    text = decode_utf8(raw[: start or len(raw)], "model file:")
    head = text.splitlines()
    names, config, end = _parse_head([*head, "[tree 0]"] if start else head)
    if end < len(head):
        # [tree 0] shares its line, or a break other than "\n" ends it
        k = "".join(text.splitlines(True)[:end]).count("\n")
        raise _first_bad_line(data.split(b"\n", k + 1)[k] + b"\n", k + 1)
    if not start:
        raise DataError("model file: truncated, expected [tree 0]")
    heads = [start]
    while len(heads) < config.n_trees and (pos := data.find(b"\n[tree %d]\n" % len(heads), heads[-1]) + 1):
        heads.append(pos)
    # tree i's node lines run from the end of its header line to the next header
    begins = [pos + len(b"[tree %d]\n" % i) for i, pos in enumerate(heads)]
    stops = [*heads[1:], len(data)]
    sizes = np.array([data.count(b"\n", begin, stop) for begin, stop in zip(begins, stops)])
    roots = np.cumsum(sizes) - sizes
    total, whole = int(sizes.sum()), len(heads) == config.n_trees and sizes.all()
    nodes = Tree.of_table(np.empty(total, np.int32), np.empty(total), np.empty((total, 2), np.int32), np.empty(total))
    for i, (begin, stop, root, size) in enumerate(zip(begins, stops, roots.tolist(), sizes.tolist())):
        first = len(head) + 1 + i + root  # the file line index of the tree's first node
        tree = _read_tree(data[begin:stop]) if size else None
        if tree is None:
            # a tree found missing or empty is reported after any line outside
            # the grammar, but before a header out of place
            error = _first_bad_line(data[begin:stop], first + 1, headers=not whole)
            if error:
                raise error
        elif whole:
            _put_tree(nodes.part(root, root + size), i, first, len(names), *tree)
    if len(heads) < config.n_trees:
        raise DataError(f"model file: truncated, expected [tree {len(heads)}]")
    if not whole:
        raise DataError(f"model file: [tree {np.flatnonzero(sizes == 0)[0]}] has no nodes")
    return RandomForest(nodes, roots, config, names)
