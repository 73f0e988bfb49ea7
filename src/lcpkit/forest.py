"""From-scratch random forest regressor built on CART regression trees.

Trees are grown greedily: at each node a subset of feature indices is sampled
without replacement and the split minimizing the summed squared error of the
two children (equivalently, the weighted child target variance) is chosen
over all midpoints between consecutive distinct sorted feature values. Ties
are broken toward the lower feature index, then the lower threshold.

The search is screened: features with few distinct values are scored at
every boundary from one pass of sums per node, and only those whose score
comes within a rounding bound of the best go, with every many-valued
feature, to the one exact search (``_verify``). The result is the
exhaustive search's, bit for bit (see ``_Screen.split_depth``).

Every tree grows a depth at a time, all of a depth's nodes searched
together (``_Screen.split_depth``), and is renumbered into pre-order at the
end.

Determinism: tree t draws from its own generator seeded with
``derive_seed(config.seed, t)``, so results are independent of whether trees
are built one after another or in parallel worker processes. Within a tree
the generator is consumed in level order: bootstrap indices first, then,
when fewer than all features are sampled, one feature draw per split
attempt, depth by depth and left to right within a depth.
"""

from __future__ import annotations

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
#: a few trees' slices of the node table (about 100 KB each) at a time and a
#: single row walks every tree at once. On the benchmark's 4,790-row batch
#: share and 120-tree model, 2**13, 2**14 and 2**15 walked in a median 310,
#: 258 and 255 ms (3 runs of 5 rounds, 2-core VM).
_PAIRS_PER_GROUP = 1 << 14
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


#: Features with at most this many boundaries between distinct values are
#: screened; features with more always go to the exact search.
_SCREEN_MAX_BOUNDARIES = 16
#: Children of at most this many rows get their screen sums from one
#: gather over all of a depth's nodes; a larger child gets its own pass, so
#: the gather stays small. Four trees of the benchmark's seed-1 training
#: matrix (6,130 x 714) took a median 0.76, 0.67, 0.70, 0.72 and 0.94 s at
#: 16, 32, 64, 128 and 256 rows (5 rounds, 1 worker, 2-core VM).
_GATHER_ROWS = 64
_U = 2.0**-53  # unit roundoff of float64


def _gamma(k):
    """Bound on the relative error of a float sum of k terms, in any order."""
    return k * _U / (1.0 - k * _U)


def _ranges(first: np.ndarray, size: np.ndarray) -> np.ndarray:
    """``first[i], ..., first[i] + size[i] - 1`` for each i in turn, as one array."""
    ends = np.cumsum(size)
    return np.arange(ends[-1] if ends.size else 0) + np.repeat(first - ends + size, size)


def _totals(ys: np.ndarray, start: np.ndarray, which: np.ndarray):
    """``np.sum(v)`` and ``np.sum(v * v)`` for the targets
    ``v = ys[start[i]:start[i + 1]]`` of each node i in ``which``; 0.0 for
    the others."""
    t1, t2 = np.zeros(start.size - 1), np.zeros(start.size - 1)
    for i in np.flatnonzero(which).tolist():
        v = ys[start[i] : start[i + 1]]
        t1[i], t2[i] = v.sum(), (v * v).sum()
    return t1, t2


def _verify(rank, yrows, rows, first, m, t1, t2, feat, width: int, min_samples_leaf: int):
    """The exact search of one feature at one node, for many (node,
    feature) pairs at once.

    Pair i searches feature ``feat[i]`` over the rows
    ``rows[first[i]:first[i] + m[i]]``, whose targets ``yrows`` holds at the
    same positions and which sum to ``t1[i]``, their squares to ``t2[i]``
    (``np.sum``'s bits); ``m[i] <= width``. Its rows fill one row of
    ``width`` cells, each cell keyed by the rank of its value (``rank``, see
    ``_Screen``) and then its position: sorting the keys orders the node's
    rows by value, stably. Padding takes a rank above every value's and the
    0.0 at ``yrows[rows.size]``, so the sequential cumsums along the row
    give the prefix sums of the sorted targets. Each cut between two
    distinct values, with at least ``min_samples_leaf`` rows either side,
    has the SSE ``c2 - c1**2/nl + ((t2 - c2) - (t1 - c1)**2/nr)``. Returns
    each pair's smallest SSE (+inf if it has no valid cut) and the rows
    either side of its first cut with that SSE.
    """
    pair = np.arange(m.size)
    shift = int(rows.size).bit_length()
    cells = np.arange(width)
    pos = first[:, None] + cells
    pad = cells >= m[:, None]
    pos[pad] = rows.size
    key = rank[feat[:, None], rows.take(pos, mode="clip")].astype(np.int64)
    key[pad] = rank.shape[1]
    key <<= shift
    key |= pos
    key.sort(axis=1)
    pos = key & ((1 << shift) - 1)
    key >>= shift
    ys = yrows[pos]
    c1 = np.cumsum(ys, axis=1)[:, :-1]
    c2 = np.cumsum(ys * ys, axis=1)[:, :-1]
    nl = np.arange(1, width, dtype=np.float64)
    size = m[:, None].astype(np.float64)
    nr = np.maximum(size - nl, 1.0)  # the padding's right counts, kept off 0
    t1, t2 = t1[:, None], t2[:, None]
    sse = (c2 - c1 * c1 / nl) + ((t2 - c2) - (t1 - c1) * (t1 - c1) / nr)
    cut = key[:, :-1] != key[:, 1:]
    cut &= nl < size
    if min_samples_leaf > 1:
        cut &= (nl >= min_samples_leaf) & (nr >= min_samples_leaf)
    sse[~cut] = np.inf
    at = np.argmin(sse, axis=1)
    return sse[pair, at], rows[pos[pair, at]], rows[pos[pair, at + 1]]


def _searched(m, depth: int, config: ForestConfig):
    """Whether nodes of m rows at ``depth`` are searched for a split."""
    return (m >= config.min_samples_split) & (config.max_depth is None or depth < config.max_depth)


@dataclass
class _Depth:
    """The nodes of one depth of a tree, in one order.

    Node i has id ``first_id + i``, the rows ``rows[start[i]:start[i + 1]]``
    and the screen state (see ``_Screen``) ``act``, ``sums`` over the pairs
    ``pairs[i]:pairs[i + 1]``, with error ``err[i]``.
    """

    first_id: int
    depth: int
    rows: np.ndarray
    start: np.ndarray
    act: np.ndarray
    sums: np.ndarray
    pairs: np.ndarray
    err: np.ndarray


class _Screen:
    """Per-fit data of the screened split search, shared by the fit workers.

    ``rank[f, i]`` is the rank of ``X[i, f]`` among feature f's distinct
    values: the number of them below it. A column of at most two distinct
    values (677 to 681 of the 714 ``lcp_rit`` columns) ranks by one
    comparison with its minimum; only the others are sorted. On the
    benchmark's 6,130 x 714 seed-1 training matrix the build takes 25 to
    30 ms and peaks at 13.2 MiB traced, 0.4 MiB above what it keeps (2-core
    VM).

    ``ind[:, b]`` is True where ``X[:, feature[b]] <= value`` for boundary
    b, one boundary below each distinct value but the largest of every
    screened feature, in feature order; it takes one byte per cell. A node
    carries ``(act, sums, err)``: the boundaries that cut it (a boundary
    that cuts no row off a node cuts none off its children either), their
    left counts (exact) and left target sums (each within ``err`` of its
    exact value): ``np.bincount`` over a gather of a depth's small nodes'
    rows, or ``np.einsum`` over a node's distinct rows weighted by their
    counts (``_sums``). Neither makes a BLAS call, so a fit worker runs on
    its own thread only. A node that no boundary cuts and on which no
    ``exact`` feature takes two values has no feature to split on.
    """

    def __init__(self, X: np.ndarray, y: np.ndarray, min_samples_leaf: int):
        self.X, self.y, self.min_samples_leaf = X, y, min_samples_leaf
        n, d = X.shape
        xt = X.T  # C-contiguous when X is column-major, as extraction makes it
        low, high = X.min(axis=0), X.max(axis=0)
        width = (high > low).astype(np.intp)  # boundaries per feature
        # a value's rank is the number of its feature's distinct values below it
        self.rank = np.empty((d, n), dtype=np.min_scalar_type(n))
        # A column of at most two distinct values ranks by one comparison;
        # columns go 16 at a time, so the temporaries stay in cache.
        two = np.empty(d, dtype=bool)
        for at in range(0, d, 16):
            part = slice(at, at + 16)
            block, lo, hi = xt[part], low[part, None], high[part, None]
            np.greater(block, lo, out=self.rank[part])
            two[part] = ((block == lo) | (block == hi)).all(axis=1)
        # only the other columns are sorted, to find their distinct values
        many = np.flatnonzero(~two)
        xs = xt[many]
        xs.sort(axis=1)
        new = xs[:, 1:] != xs[:, :-1]
        width[many] = new.sum(axis=1)
        below = xs[:, :-1][new]  # their distinct values but the largest, column by column
        del xs, new
        for f, end, w in zip(many.tolist(), np.cumsum(width[many]).tolist(), width[many].tolist()):
            self.rank[f] = np.searchsorted(below[end - w : end], xt[f])
        cols = np.flatnonzero((width >= 1) & (width <= _SCREEN_MAX_BOUNDARIES))
        # constant features never split, so they are neither screened nor exact
        self.exact = np.flatnonzero(width > _SCREEN_MAX_BOUNDARIES)
        self.feature = np.repeat(cols, width[cols])
        # A value is at most its feature's j-th boundary exactly when its rank
        # is at most j. Rows go a block at a time, which stays in cache.
        j = _ranges(np.zeros(cols.size, np.intp), width[cols]).astype(self.rank.dtype)
        self.ind = np.empty((n, self.feature.size), dtype=bool)
        for rows in range(0, n, 256):
            np.less_equal(self.rank[self.feature, rows : rows + 256].T, j, out=self.ind[rows : rows + 256])
        self.ones_y = np.column_stack([np.ones(n), y])

    def _sums(self, idx: np.ndarray, act: np.ndarray) -> np.ndarray:
        """Left counts and target sums of boundaries ``act`` over rows
        ``idx``, summed over its distinct rows, each weighted by how often it
        occurs, 256 rows at a time: each sum has at most ``idx.size`` nonzero
        terms, each rounded at most once.
        """
        rows, count = np.unique(idx, return_counts=True)
        sums = np.zeros((2, act.size))
        for at in range(0, rows.size, 256):
            block = rows[at : at + 256]
            weighted = self.ones_y[block] * count[at : at + 256, None]
            sums += np.einsum("ij,ik->kj", self.ind.take(block, axis=0).take(act, axis=1), weighted)
        return sums

    def root(self, idx: np.ndarray):
        """The screen state of a root over rows ``idx``."""
        act = np.arange(self.feature.size)
        sums = self._sums(idx, act)
        cut = (sums[0] > 0) & (sums[0] < idx.size)
        return act[cut], sums[:, cut], _gamma(idx.size + 1) * float(np.abs(self.y[idx]).sum())

    def split_depth(self, nodes: _Depth, config: ForestConfig, rng: np.random.Generator):
        """Split the nodes of one depth: their Tree columns, ``(feature,
        threshold, left, right, value)`` with children named by id, and the
        next depth, each split node's left then right child.

        When fewer than all d features are sampled, each searched node draws
        its k features from ``rng``, in node order. Each searched node takes
        the exhaustive search's split over its features: the lowest feature
        with the smallest SSE, at its lowest cut with that SSE. One exact
        search (``_verify``) computes it for all the nodes at once, on a
        shortlist of their (node, feature) pairs only. What the search finds
        for a feature depends only on that feature's column: per-column
        stable sorts and sequential cumsums. So the result is the full
        search's whenever the shortlist holds the full search's winner. The
        shortlist is every node's features of its draw that are exact and
        take two values on it, and every screened one with a boundary whose
        screened score comes within ``4 * E`` of the node's best (see
        ``_screen_bound``): no feature left out can reach the winning SSE.
        Where the bound is not trusted, every screened feature of the draw
        with a boundary that cuts the node (a score of at least 0; masked
        pairs score -inf) is shortlisted.
        """
        X, y, msl = self.X, self.y, self.min_samples_leaf
        d, count = X.shape[1], nodes.start.size - 1
        m, first = np.diff(nodes.start), nodes.start[:-1]
        ys = y[nodes.rows]
        ymin, ymax = np.minimum.reduceat(ys, first), np.maximum.reduceat(ys, first)
        varied = ymin != ymax
        t1, t2 = _totals(ys, nodes.start, varied)
        # constant targets keep their exact value; otherwise the mean
        value = np.where(varied, t1 / m, ymin)
        live = varied & _searched(m, nodes.depth, config)
        # each node's draw of features: all of them when all are searched
        sampled = np.full((count, d), config.max_features_per_split >= d)
        if config.max_features_per_split < d:
            for i in np.flatnonzero(live).tolist():
                sampled[i, rng.choice(d, size=config.max_features_per_split, replace=False)] = True
        exact = self.exact
        xe = self.rank[np.ix_(exact, nodes.rows)].T
        varies = (np.minimum.reduceat(xe, first) != np.maximum.reduceat(xe, first)) & sampled[:, exact]
        n_pairs = np.diff(nodes.pairs)
        live &= (n_pairs > 0) | varies.any(axis=1)

        # the screen: every (node, boundary) pair's score, the node's sum of
        # squares minus the SSE of the cut
        pair_node = np.repeat(np.arange(count), n_pairs)
        left_count, left = nodes.sums
        right = t1[pair_node] - left
        n_right = m[pair_node] - left_count
        score = left * left / left_count + right * right / n_right
        if msl > 1:
            score[(left_count < msl) | (n_right < msl)] = -np.inf
        pair_feature = self.feature[nodes.act]
        score[~(live[pair_node] & sampled[pair_node, pair_feature])] = -np.inf
        top = np.maximum.reduceat(np.append(score, -np.inf), nodes.pairs[:-1])
        top[n_pairs == 0] = -np.inf
        total_abs = np.add.reduceat(np.abs(ys), first)
        peak = np.maximum(-ymin, ymax)
        trusted = (m <= 1 << 30) & (peak >= 2.0**-400) & (peak <= 2.0**400)
        floor = np.where(trusted, np.inf, 0.0)
        ok = trusted & (top > -np.inf)
        floor[ok] = top[ok] - 4.0 * _screen_bound(m[ok], peak[ok], total_abs[ok], t2[ok], nodes.err[ok])
        keep = score >= floor[pair_node]
        node_e, column_e = np.nonzero(varies & live[:, None])
        keys = np.unique(np.concatenate([pair_node[keep] * d + pair_feature[keep], node_e * d + exact[column_e]]))
        key_node, key_feature = np.divmod(keys, d)

        # verify: the pairs of nodes of up to each power-of-two size at once
        best, low, high = np.empty(keys.size), np.empty(keys.size, np.intp), np.empty(keys.size, np.intp)
        width = np.left_shift(1, np.frexp(m[key_node] - 1)[1])
        yrows = np.append(ys, 0.0)
        for w in np.unique(width).tolist():
            sel = np.flatnonzero(width == w)
            v = key_node[sel]
            best[sel], low[sel], high[sel] = _verify(
                self.rank, yrows, nodes.rows, first[v], m[v], t1[v], t2[v], key_feature[sel], w, msl
            )
        # each node's first key with its smallest SSE: the lowest feature
        order = np.lexsort((best, key_node))
        _, at = np.unique(key_node[order], return_index=True)
        j = order[at]
        j = j[best[j] < np.inf]
        a, b = X[low[j], key_feature[j]], X[high[j], key_feature[j]]
        thr = (a + b) / 2.0
        # a midpoint rounded onto the right value keeps the cut below b
        feature, threshold = np.full(count, -1), np.zeros(count)
        feature[key_node[j]], threshold[key_node[j]] = key_feature[j], np.where(thr >= b, a, thr)

        split = feature >= 0
        left_id = np.where(split, nodes.first_id + count + 2 * (np.cumsum(split) - 1), -1)
        columns = (feature, threshold, left_id, np.where(split, left_id + 1, -1), np.where(split, 0.0, value))
        return columns, self._depth_children(nodes, config, split, feature, threshold, total_abs)

    def _depth_children(self, nodes, config, split, feature, threshold, total_abs) -> _Depth:
        """The next depth: the children of the nodes ``split`` marks, each
        one's left then right. Each node's rows keep their order in its
        children. A pair of children gets screen states when either is
        searched: the smaller child's sums come from its rows, the larger's
        are the parent's minus the smaller's, and so carry the errors of
        both."""
        X, y = self.X, self.y
        m = np.diff(nodes.start)
        node = np.repeat(np.arange(m.size), m)
        on = split[node]
        rows, node = nodes.rows[on], node[on]
        child = 2 * (np.cumsum(split) - 1)[node] + (X[rows, feature[node]] > threshold[node])
        rows = rows[np.argsort(child, kind="stable")]
        n_children = 2 * np.count_nonzero(split)
        size = np.bincount(child, minlength=n_children)
        start = np.concatenate([[0], np.cumsum(size)])

        depth = nodes.depth + 1
        pair = np.flatnonzero(_searched(size[0::2], depth, config) | _searched(size[1::2], depth, config))
        parent = np.flatnonzero(split)[pair]
        right_small = (size[1::2] < size[0::2])[pair]
        small, large = 2 * pair + right_small, 2 * pair + 1 - right_small
        n_pairs = np.diff(nodes.pairs)[parent]
        span = np.concatenate([[0], np.cumsum(n_pairs)])
        at = _ranges(nodes.pairs[parent], n_pairs)
        act = nodes.act[at]
        # small children of up to _GATHER_ROWS rows, all in one gather, row by row
        gathered = np.flatnonzero(size[small] <= _GATHER_ROWS)
        row_owner = np.repeat(gathered, size[small[gathered]])
        row = rows[_ranges(start[small[gathered]], size[small[gathered]])]
        pair_of = _ranges(span[row_owner], n_pairs[row_owner])
        row = np.repeat(row, n_pairs[row_owner])
        hit = self.ind[row, act[pair_of]]
        small_sums = np.array([np.bincount(pair_of, hit, at.size), np.bincount(pair_of, hit * y[row], at.size)], float)
        for i in np.flatnonzero(size[small] > _GATHER_ROWS).tolist():
            c = small[i]
            small_sums[:, span[i] : span[i + 1]] = self._sums(rows[start[c] : start[c + 1]], act[span[i] : span[i + 1]])
        small_err = _gamma(size[small] + 1) * total_abs[parent]
        err = np.zeros(n_children)
        err[small] = small_err
        err[large] = (nodes.err[parent] + small_err) * (1.0 + _U) + _U * total_abs[parent]

        # each child keeps the boundaries that still cut it
        owner = np.repeat(np.arange(parent.size), n_pairs)
        owner_child = np.concatenate([small[owner], large[owner]])
        sums = np.concatenate([small_sums, nodes.sums[:, at] - small_sums], axis=1)
        cut = (sums[0] > 0) & (sums[0] < size[owner_child])
        owner_child = owner_child[cut]
        order = np.argsort(owner_child, kind="stable")
        return _Depth(
            nodes.first_id + m.size, depth, rows, start, np.concatenate([act, act])[cut][order], sums[:, cut][:, order],
            np.concatenate([[0], np.cumsum(np.bincount(owner_child, minlength=n_children))]), err,
        )


def _screen_bound(m, peak, total_abs, sum_sq, err):
    """E: a bound on how far the screen's and the verify step's SSE for one
    partition of a node can both stray from its exact value, together; of
    one node, or elementwise of arrays of nodes.

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
    """One tree, drawing from ``rng`` in level order: its bootstrap, then
    each depth's feature draws. Each depth is split in one step, and the
    nodes are renumbered into pre-order at the end, from the links between
    parents and children."""
    n = X.shape[0]
    root_idx = rng.integers(0, n, size=n) if config.bootstrap else np.arange(n)
    act, sums, err = screen.root(root_idx)
    nodes = _Depth(0, 0, root_idx, np.array([0, root_idx.size]), act, sums, np.array([0, act.size]), np.array([err]))
    columns = []
    while nodes.start.size > 1:
        found, nodes = screen.split_depth(nodes, config, rng)
        columns.append(found)
    feature, threshold, left, right, value = (np.concatenate(column) for column in zip(*columns))
    pre, stack = [], [0]
    lefts, rights = left.tolist(), right.tolist()
    while stack:
        i = stack.pop()
        pre.append(i)
        if lefts[i] >= 0:
            stack += (rights[i], lefts[i])
    number = np.empty(len(pre), dtype=np.intp)
    number[pre] = np.arange(len(pre))
    return Tree(feature[pre], threshold[pre], number[left[pre]], number[right[pre]], value[pre])


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

    Each tree is grown a depth at a time on a bootstrap sample of size n
    (drawn with replacement from its own derived seed) unless
    ``config.bootstrap`` is off. Unless ``config.max_features_per_split`` is
    at least the number of features, each node searched for a split draws
    that many features from the same seed, in level order.

    The targets must keep ``n * max |y|`` below 2**511, where no sum of
    squared errors the split search forms can overflow.

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
    peak = float(np.abs(y).max())
    if n * peak >= 2.0**511:
        raise ValueError(f"n * max |y| must be below 2**511, got {n} rows with max |y| {peak!r}")
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
    (trees, rows), for the trees at ``roots`` and the rows of the
    column-major (Fortran-ordered) ``X``.

    All pairs descend together; as leaves step to themselves, the pairs that
    have reached one are dropped only every ``_LEVELS_PER_CHECK`` levels.
    Cell (row, f) is ``flat[f * rows + row]``, so the pairs at nodes that
    split on one feature read one column, in row order.
    """
    feature, threshold, child = nodes.feature, nodes.threshold, nodes.child.ravel()
    n_rows, n_trees, flat = np.intp(X.shape[0]), roots.size, X.ravel(order="F")
    root = np.repeat(roots.astype(np.intp), n_rows)
    node, row, pair = root.copy(), np.tile(np.arange(n_rows), n_trees), np.arange(root.size)
    leaf = root.copy()
    index, at, x, thr, right = (
        np.empty(root.size, dtype) for dtype in (np.int32, np.intp, np.float64, np.float64, bool)
    )
    i = feature.take(node, out=index)
    while True:
        # ``i`` holds each pair's node's feature, -1 at a leaf
        live = i >= 0
        if not live.all():
            leaf[pair] = node
            keep = np.flatnonzero(live)
            pair, node, row, root = pair.take(keep), node.take(keep), row.take(keep), root.take(keep)
            i = feature.take(node, out=index[: keep.size])
        if not pair.size:
            return leaf.reshape(n_trees, n_rows)
        m = pair.size
        a, xv, tv, rv = at[:m], x[:m], thr[:m], right[:m]
        # Indices are always in range; mode="wrap" only spares take the copy
        # of ``out`` that mode="raise" makes. A leaf's -1 feature reads some
        # finite cell, which is never above its +inf threshold.
        for _ in range(_LEVELS_PER_CHECK):
            cell = i  # a single row's cell (0, f) is flat[f]
            if n_rows > 1:
                cell = np.multiply(i, n_rows, out=a)
                np.add(cell, row, out=cell)
            flat.take(cell, out=xv, mode="wrap")
            threshold.take(node, out=tv, mode="wrap")
            np.greater(xv, tv, out=rv)
            np.add(node, node, out=a)
            np.add(a, rv, out=a)
            child.take(a, out=i, mode="wrap")
            np.add(i, root, out=node)  # children are numbered within their tree
            feature.take(node, out=i, mode="wrap")


def predict_batch(model: RandomForest, X) -> np.ndarray:
    """Mean of the individual tree outputs for each row of a 2-D ``X``. Raw,
    unclamped. A single row is scored as a one-row ``X``.

    Every row is walked. Leaf values are summed in tree order, so a row's
    result does not depend on the rows scored with it.
    """
    X = np.asfortranarray(_check_matrix(X))
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


#: How a model file spells a ``[config]`` value, by the ForestConfig field's
#: annotation: the value's writer and the raw text's reader.
_CONFIG_SPELLINGS = {
    "int": (str, int),
    "bool": ({True: "true", False: "false"}.__getitem__, {"true": True, "false": False}.__getitem__),
    "int | None": (
        lambda value: "none" if value is None else str(value),
        lambda raw: None if raw == "none" else int(raw),
    ),
}


def save_model(model: RandomForest, sink: IO[bytes]) -> None:
    """Write the line-oriented text model format (canonical, byte-stable):
    the head (magic line, ``[schema]`` and ``[config]``), then each
    ``[tree i]`` section, each written to ``sink`` as soon as it is
    formatted."""
    config = (f"{f.name}={_CONFIG_SPELLINGS[f.type][0](getattr(model.config, f.name))}" for f in fields(ForestConfig))
    sink.write("\n".join([f"{_MAGIC} {_VERSION}", "[schema]", *model.feature_names, "[config]", *config, ""]).encode())
    for i, tree in enumerate(model.trees):
        columns = (getattr(tree, name).tolist() for name in ("feature", "threshold", "left", "right", "value"))
        nodes = (f"L {v!r}" if f < 0 else f"N {f} {thr!r} {left} {right}" for f, thr, left, right, v in zip(*columns))
        sink.write("\n".join([f"[tree {i}]", *nodes, ""]).encode())


def _parse_config_lines(pairs: dict[str, str]) -> ForestConfig:
    missing = {f.name for f in fields(ForestConfig)} - pairs.keys()
    if missing:
        raise DataError(f"model file: missing config keys {sorted(missing)}")
    try:
        return ForestConfig(**{f.name: _CONFIG_SPELLINGS[f.type][1](pairs[f.name]) for f in fields(ForestConfig)})
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
