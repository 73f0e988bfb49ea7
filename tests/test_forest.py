import hashlib
import io
import math
import multiprocessing
import os
import random
import re
import threading
from concurrent.futures import ProcessPoolExecutor
from fractions import Fraction
from functools import cache
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from lcpkit import forest as forest_module
from lcpkit.corpus import Instance
from lcpkit.errors import DataError, ResourceError
from lcpkit.features import FeatureConfig, fit_schema
from lcpkit.forest import (
    ForestConfig,
    RandomForest,
    Tree,
    derive_seed,
    fit,
    load_model,
    predict_batch,
    save_model,
)
from lcpkit.lexicons import LexiconRegistry
from lcpkit.pipeline import predict_scores

from conftest import mutated, reference_load_model


def single_tree_config(**kwargs) -> ForestConfig:
    base = dict(n_trees=1, bootstrap=False, seed=0)
    base.update(kwargs)
    return ForestConfig(**base)


def brute_force_best_split(X, y, min_samples_leaf=1):
    """Exhaustive (feature, midpoint) search in exact rational arithmetic.

    Ties break toward the lower feature index, then the lower threshold,
    mirroring the documented rule.
    """
    n, d = X.shape
    yf = [Fraction(v) for v in y]
    best = None  # (sse, feature, threshold)
    for f in range(d):
        values = sorted({Fraction(v) for v in X[:, f]})
        for lo, hi in zip(values, values[1:]):
            thr = (lo + hi) / 2
            left = [yf[i] for i in range(n) if Fraction(X[i, f]) <= thr]
            right = [yf[i] for i in range(n) if Fraction(X[i, f]) > thr]
            if len(left) < min_samples_leaf or len(right) < min_samples_leaf:
                continue
            sse = Fraction(0)
            for side in (left, right):
                mean = sum(side) / len(side)
                sse += sum((v - mean) ** 2 for v in side)
            key = (sse, f, thr)
            if best is None or key < best:
                best = key
    if best is None:
        return None
    return best[1], best[2]


class TestFit:
    def test_four_point_hand_example(self):
        model = fit([[1.0], [2.0], [3.0], [4.0]], [0.0, 0.0, 1.0, 1.0], single_tree_config())
        tree = model.trees[0]
        assert tree.feature[0] == 0
        assert tree.threshold[0] == 2.5
        assert predict_batch(model, [[1.0]]).tolist() == [0.0]
        assert predict_batch(model, [[4.0]]).tolist() == [1.0]

    def test_constant_targets_single_leaf(self):
        model = fit([[1.0], [2.0], [3.0]], [0.4, 0.4, 0.4], ForestConfig(n_trees=5, seed=1))
        for tree in model.trees:
            assert tree.n_nodes == 1
            assert tree.value[0] == 0.4
        assert predict_batch(model, [[99.0]]).tolist() == [0.4]

    def test_two_leaf_forest_averages(self):
        leaf_a = Tree([-1], [0.0], [-1], [-1], [0.2])
        leaf_b = Tree([-1], [0.0], [-1], [-1], [0.6])
        model = RandomForest.from_trees([leaf_a, leaf_b], ForestConfig(n_trees=2), ["f0"])
        assert predict_batch(model, [[0.0]])[0] == pytest.approx(0.4)

    def test_deterministic_across_runs_and_threads(self):
        rng = np.random.default_rng(5)
        X = rng.normal(size=(60, 4))
        y = rng.random(60)
        cfg = ForestConfig(n_trees=6, seed=42)
        blobs = []
        for threads in (1, 1, 3):
            buf = io.BytesIO()
            save_model(fit(X, y, cfg, n_threads=threads), buf)
            blobs.append(buf.getvalue())
        assert blobs[0] == blobs[1] == blobs[2]

    def test_empty_inputs_rejected(self):
        with pytest.raises(ValueError):
            fit(np.zeros((0, 2)), np.zeros(0), single_tree_config())
        with pytest.raises(ValueError):
            fit(np.zeros((3, 0)), np.zeros(3), single_tree_config())

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError):
            fit([[1.0], [math.nan]], [0.0, 1.0], single_tree_config())
        with pytest.raises(ValueError):
            fit([[1.0], [2.0]], [0.0, math.inf], single_tree_config())

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            fit([[1.0], [2.0]], [0.0, 1.0, 2.0], single_tree_config())

    @pytest.mark.parametrize("name", ["a\u2028b", "a\n", "a\rb", "[config]", "[tree 0]", "[trees"])
    def test_names_a_model_file_cannot_hold_rejected(self, name):
        with pytest.raises(ValueError, match=r"feature name 1 \(" + re.escape(repr(name))):
            fit([[1.0, 2.0], [2.0, 1.0]], [0.0, 1.0], single_tree_config(), feature_names=["ok", name])

    def test_derive_seed_wraps(self):
        assert derive_seed(0, 7) == 7
        assert derive_seed(1, 0) == 1_000_003
        assert derive_seed(2**63, 5) < 2**64

    def test_min_samples_leaf_respected(self):
        X = np.arange(10.0)[:, None]
        y = np.linspace(0, 1, 10)
        model = fit(X, y, single_tree_config(min_samples_leaf=3))
        tree = model.trees[0]
        counts = []

        def walk(node, idx):
            if tree.feature[node] < 0:
                counts.append(len(idx))
                return
            mask = X[idx, tree.feature[node]] <= tree.threshold[node]
            walk(tree.left[node], idx[mask])
            walk(tree.right[node], idx[~mask])

        walk(0, np.arange(10))
        assert min(counts) >= 3

    def test_max_depth_zero_is_single_leaf(self):
        model = fit([[1.0], [2.0]], [0.0, 1.0], single_tree_config(max_depth=0))
        assert model.trees[0].n_nodes == 1
        assert model.trees[0].value[0] == 0.5


def model_bytes(model) -> bytes:
    buf = io.BytesIO()
    save_model(model, buf)
    return buf.getvalue()


def worker_pools():
    """Patch forest's process pool with a spy that still starts the pool."""
    return mock.patch.object(forest_module, "ProcessPoolExecutor", wraps=ProcessPoolExecutor)


class TestWorkers:
    """Trees grown in forked worker processes."""

    @staticmethod
    def data(seed: int):
        rng = np.random.default_rng(seed)
        X = np.column_stack([rng.normal(size=80), rng.integers(0, 3, size=(80, 5))])
        return X, X[:, 0] + X[:, 1] + rng.random(80)

    @pytest.mark.parametrize("n_trees", [1, 2, 6])
    def test_same_bytes_for_any_worker_count(self, n_trees):
        X, y = self.data(1)
        cfg = ForestConfig(n_trees=n_trees, max_features_per_split=3, seed=9)
        expected = model_bytes(fit(X, y, cfg))
        for threads in (1, 2, 3, 5):
            with worker_pools() as pool:
                assert model_bytes(fit(X, y, cfg, n_threads=threads)) == expected
            workers = min(threads, n_trees)
            if workers == 1:
                pool.assert_not_called()
            else:
                assert pool.call_count == 1 and pool.call_args.args[0] == workers

    def test_no_worker_outlives_fit(self):
        X, y = self.data(2)
        cfg = ForestConfig(n_trees=3, seed=4)
        fit(X, y, cfg, n_threads=2)
        assert multiprocessing.active_children() == []

        grow = forest_module._grow_tree
        tree_1 = np.random.default_rng(derive_seed(cfg.seed, 1)).bit_generator.state

        def failing(X, y, config, rng, screen):
            if rng.bit_generator.state == tree_1:
                raise RuntimeError("tree 1 failed")
            return grow(X, y, config, rng, screen)

        with mock.patch.object(forest_module, "_grow_tree", failing):
            with pytest.raises(RuntimeError, match="tree 1 failed"):
                fit(X, y, cfg, n_threads=2)
        assert multiprocessing.active_children() == []

    def test_dead_worker_is_resource_error(self):
        X, y = self.data(2)
        cfg = ForestConfig(n_trees=3, seed=4)
        with mock.patch.object(forest_module, "_grow_tree", lambda *args: os._exit(9)):
            with pytest.raises(ResourceError, match=r"worker process died .* before item 0 of 3 of _build"):
                fit(X, y, cfg, n_threads=2)
        assert multiprocessing.active_children() == []

    @pytest.mark.parametrize("workers", [1, 2, 3])
    def test_forked_map_inherits_function_and_task(self, workers):
        """Results come back in order; a lambda and an unpicklable task work,
        since neither is sent to the workers."""
        task = (threading.Lock(), "task")
        with worker_pools() as pool:
            got = forest_module.forked_map(lambda i, t: (i * i, t[1], os.getpid()), 5, workers, task)
        assert [(square, name) for square, name, _ in got] == [(i * i, "task") for i in range(5)]
        assert (os.getpid() in {pid for *_, pid in got}) == (workers == 1)
        assert pool.call_count == (workers > 1)
        assert multiprocessing.active_children() == []

    def test_concurrent_fits_match_sequential(self):
        jobs = [(self.data(3), 2), (self.data(4), 1), (self.data(5), 2)]
        cfg = ForestConfig(n_trees=4, seed=6)
        expected = [model_bytes(fit(X, y, cfg, n_threads=threads)) for (X, y), threads in jobs]
        module_state = dict(vars(forest_module))
        start = threading.Barrier(len(jobs))
        got = [None] * len(jobs)

        def run(i):
            (X, y), threads = jobs[i]
            start.wait()
            got[i] = model_bytes(fit(X, y, cfg, n_threads=threads))

        runners = [threading.Thread(target=run, args=(i,)) for i in range(len(jobs))]
        for runner in runners:
            runner.start()
        for runner in runners:
            runner.join(timeout=120)
            assert not runner.is_alive()
        assert got == expected
        assert vars(forest_module) == module_state

    def test_auto_counts_usable_cpus(self):
        X, y = self.data(7)
        cfg = ForestConfig(n_trees=3, seed=1)
        with worker_pools() as pool, mock.patch("os.sched_getaffinity", return_value={0}, create=True):
            one = model_bytes(fit(X, y, cfg, n_threads=0))
        pool.assert_not_called()
        with worker_pools() as pool, mock.patch("os.sched_getaffinity", return_value={0, 1}, create=True):
            assert model_bytes(fit(X, y, cfg, n_threads=0)) == one
        assert pool.call_args.args[0] == 2

    def test_without_fork_grows_in_process(self):
        X, y = self.data(8)
        cfg = ForestConfig(n_trees=3, seed=2)
        with worker_pools() as pool, mock.patch("multiprocessing.get_all_start_methods", return_value=["spawn"]):
            assert model_bytes(fit(X, y, cfg, n_threads=2)) == model_bytes(fit(X, y, cfg))
        pool.assert_not_called()

    def test_negative_count_rejected(self):
        with pytest.raises(ValueError, match="n_threads must be >= 0"):
            fit([[1.0], [2.0]], [0.0, 1.0], single_tree_config(), n_threads=-1)


class TestSplitOptimality:
    def test_matches_brute_force_on_random_cases(self):
        rng = random.Random(99)
        for case in range(40):
            n = rng.randint(2, 8)
            d = rng.randint(1, 3)
            X = np.array([[rng.randint(0, 4) for _ in range(d)] for _ in range(n)], dtype=float)
            y = np.array([rng.randint(0, 2048) / 2048 for _ in range(n)])
            expected = brute_force_best_split(X, y)
            model = fit(X, y, single_tree_config())
            tree = model.trees[0]
            if expected is None or float(np.min(y)) == float(np.max(y)):
                continue
            assert tree.feature[0] == expected[0], f"case {case}"
            assert Fraction(float(tree.threshold[0])) == expected[1], f"case {case}"

    def test_duplicated_column_breaks_tie_to_lower_index(self):
        rng = random.Random(3)
        for _ in range(20):
            n = rng.randint(2, 8)
            col = np.array([rng.randint(0, 4) for _ in range(n)], dtype=float)
            if len(set(col.tolist())) < 2:
                continue
            y = np.array([rng.randint(0, 2048) / 2048 for _ in range(n)])
            if float(np.min(y)) == float(np.max(y)):
                continue
            X = np.column_stack([col, col])
            model = fit(X, y, single_tree_config())
            assert model.trees[0].feature[0] == 0

    def test_duplicated_column_does_not_change_chosen_split(self):
        rng = np.random.default_rng(17)
        X = rng.integers(0, 5, size=(8, 2)).astype(float)
        y = rng.random(8)
        base = fit(X, y, single_tree_config()).trees[0]
        doubled = fit(np.column_stack([X, X[:, 0]]), y, single_tree_config()).trees[0]
        assert doubled.feature[0] == base.feature[0]
        assert doubled.threshold[0] == base.threshold[0]


def full_search(screen, idx, ysub, feats, *node):
    """The plain exhaustive search over every sampled feature, in place of
    ``_Screen.split``."""
    return forest_module._best_split(screen.X, screen.y, idx, feats, screen.min_samples_leaf)


@st.composite
def split_problems(draw):
    """Rows of a few "tokens" that share their binary and few-valued columns,
    like n-gram indicators, so that columns often cut a node alike; plus
    many-valued, duplicated and constant columns. Targets follow the token
    on a 1/40 grid (near-ties), around 1e6 (large offset), with both signs
    over several magnitudes, or scaled by 2**-420 or 2**420, where the screen
    hands every node to the full search."""
    n = draw(st.integers(2, 70))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n_tokens = draw(st.integers(2, 8))
    token = rng.integers(0, n_tokens, size=n)
    kinds = draw(st.lists(st.sampled_from(["binary", "few", "many", "duplicate", "constant"]), min_size=1, max_size=12))
    columns = []
    for kind in kinds:
        if kind == "binary":
            low, high = sorted(rng.choice([-2.5, 0.0, 1.0, 3.0], size=2, replace=False))
            column = np.where(rng.random(n_tokens)[token] < 0.4, high, low)
        elif kind == "few":
            column = rng.integers(0, rng.integers(3, 9), size=n_tokens)[token] * 0.5
        elif kind == "many":
            column = np.round(rng.normal(size=n), 2)
        elif kind == "duplicate" and columns:
            column = columns[rng.integers(len(columns))].copy()
        else:
            column = np.full(n, 2.0)
        columns.append(column)
    grid = np.round(np.clip(rng.random(n_tokens)[token] + rng.normal(0, 0.1, size=n), 0, 1) * 40) / 40
    target = draw(st.sampled_from(["grid", "offset", "signed", "tiny", "huge"]))
    if target == "grid":
        y = grid
    elif target == "offset":
        y = 1e6 + grid + rng.normal(0, 1e-9, size=n)
    elif target == "signed":
        y = (grid - 0.5) * 10.0 ** rng.uniform(-3, 3)
    else:
        y = grid * 2.0 ** (-420 if target == "tiny" else 420)
    config = ForestConfig(
        n_trees=draw(st.integers(1, 2)),
        max_features_per_split=draw(st.integers(1, len(columns) + 1)),
        min_samples_leaf=draw(st.integers(1, 4)),
        bootstrap=draw(st.booleans()),
        seed=draw(st.integers(0, 1000)),
    )
    return np.column_stack(columns), y, config


def golden_data():
    """240 rows: ten binary columns, few- and many-valued columns, a
    duplicated and a constant column; targets on a 1/40 grid."""
    rng = np.random.default_rng(20261018)
    n = 240
    binary = (rng.random((n, 10)) < rng.uniform(0.05, 0.5, 10)).astype(float)
    low = rng.integers(0, 5, size=(n, 3)).astype(float)
    high = np.round(rng.normal(size=(n, 2)), 3)
    X = np.column_stack([binary, low[:, :1], binary[:, 2], high, np.full(n, 4.0), low[:, 1:]])
    raw = 0.3 + 0.2 * binary[:, 0] - 0.1 * low[:, 0] / 4 + 0.05 * high[:, 0] + rng.normal(0, 0.1, n)
    return X, np.round(np.clip(raw, 0, 1) * 40) / 40


class TestScreenedSearch:
    """The screened search grows the trees the exhaustive search grows, bit for bit."""

    @settings(deadline=None)
    @given(split_problems(), st.one_of(st.none(), st.integers(0, 8)))
    def test_same_trees_as_the_full_search(self, problem, screened_boundaries):
        X, y, config = problem
        # a cap on the indicator matrix leaves the features past it to the exact search
        cap = forest_module._SCREEN_MAX_BYTES if screened_boundaries is None else 8 * len(y) * screened_boundaries
        with mock.patch.object(forest_module, "_SCREEN_MAX_BYTES", cap):
            screened = fit(X, y, config)
        with mock.patch.object(forest_module._Screen, "split", full_search):
            full = fit(X, y, config)
        assert np.array_equal(screened.roots, full.roots)
        for name in Tree.__slots__:
            assert getattr(screened.nodes, name).tobytes() == getattr(full.nodes, name).tobytes(), name

    def test_same_trees_on_thousands_of_rows(self):
        # large nodes, whose sums come from weighted passes over every row
        # and from parent-minus-sibling subtraction many levels deep
        rng = np.random.default_rng(5)
        n = 3000
        X = np.column_stack(
            [rng.random((n, 40)) < 0.1, rng.integers(0, 6, size=(n, 5)), np.round(rng.normal(size=(n, 3)), 3)]
        ).astype(float)
        y = np.clip(0.2 * X[:, 0] + 0.1 * X[:, 41] / 5 + rng.normal(0, 0.2, n), 0, 1)
        config = ForestConfig(n_trees=2, seed=3)
        screened = fit(X, y, config)
        with mock.patch.object(forest_module._Screen, "split", full_search):
            full = fit(X, y, config)
        assert model_sha256(screened) == model_sha256(full)

    @pytest.mark.parametrize("scale", [2.0**-420, 2.0**420], ids=["tiny", "huge"])
    def test_targets_outside_the_trusted_range_verify_every_sampled_feature(self, scale):
        # the screen's bound is trusted only for max |y| in [2**-400, 2**400]
        rng = np.random.default_rng(8)
        X = np.column_stack([rng.random((60, 3)) < 0.5, rng.integers(0, 4, size=60), rng.normal(size=60)])
        y = np.round(rng.random(60) * 40) / 40 * scale
        sampled, calls = [], []
        real_split, real_best_split = forest_module._Screen.split, forest_module._best_split

        def split(screen, idx, ysub, feats, *rest):
            sampled.append(feats)
            return real_split(screen, idx, ysub, feats, *rest)

        def best_split(X, y, idx, feats, min_samples_leaf):
            calls.append((sampled[-1], feats))
            return real_best_split(X, y, idx, feats, min_samples_leaf)

        with mock.patch.object(forest_module._Screen, "split", split), \
                mock.patch.object(forest_module, "_best_split", best_split):
            fit(X, y, ForestConfig(n_trees=2, max_features_per_split=3, seed=1))
        assert calls
        for feats, verified in calls:
            assert np.array_equal(np.sort(feats), verified)

    @pytest.mark.parametrize(
        "config,sha",
        [
            (
                ForestConfig(n_trees=3, max_features_per_split=12, min_samples_leaf=2, seed=5),
                "213efdeb434f8d079ba55e3e76a0c56a1688e62bcd1a27ed44c2a4ace8b2b4bc",
            ),
            (ForestConfig(n_trees=3, seed=5), "2a3ec737acea0405c2b54db5c506e10181b7a137e630f6fa0ae80b34baa1c177"),
        ],
    )
    def test_golden_model_bytes(self, config, sha):
        # the hashes are those of the exhaustive search before screening
        X, y = golden_data()
        assert model_sha256(fit(X, y, config)) == sha


def model_sha256(model: RandomForest) -> str:
    sink = io.BytesIO()
    save_model(model, sink)
    return hashlib.sha256(sink.getvalue()).hexdigest()


class TestPredict:
    def test_exact_fit_on_distinct_rows(self):
        rng = np.random.default_rng(8)
        X = rng.normal(size=(30, 3))
        y = rng.random(30)
        model = fit(X, y, single_tree_config())
        assert np.array_equal(predict_batch(model, X), y)

    def test_prediction_bounds(self):
        rng = np.random.default_rng(9)
        X = rng.normal(size=(100, 4))
        y = rng.random(100)
        model = fit(X, y, ForestConfig(n_trees=10, seed=2))
        probes = rng.normal(scale=10, size=(500, 4))
        preds = predict_batch(model, probes)
        assert np.all(preds >= y.min() - 1e-12)
        assert np.all(preds <= y.max() + 1e-12)

    def test_dimension_mismatch_rejected(self):
        model = fit([[1.0], [2.0]], [0.0, 1.0], single_tree_config())
        with pytest.raises(ValueError):
            predict_batch(model, [[1.0, 2.0]])

    def test_non_finite_probe_rejected(self):
        model = fit([[1.0], [2.0]], [0.0, 1.0], single_tree_config())
        with pytest.raises(ValueError):
            predict_batch(model, [[math.nan]])


def reference_predict(model: RandomForest, X: np.ndarray) -> np.ndarray:
    """Per row, per tree walk in plain Python, summing leaves in tree order."""
    out = []
    for row in X.tolist():
        total = 0.0
        for tree in model.trees:
            node = 0
            while tree.feature[node] >= 0:
                go_left = row[int(tree.feature[node])] <= float(tree.threshold[node])
                node = int(tree.left[node] if go_left else tree.right[node])
            total += float(tree.value[node])
        out.append(total / len(model.trees))
    return np.array(out, dtype=np.float64)


#: Values shared by thresholds and probes, so probes land exactly on thresholds.
GRID = (-1.5, -0.5, 0.0, 0.5, 1.5)
grid_or_float = st.one_of(st.sampled_from(GRID), st.floats(-2.0, 2.0))


@st.composite
def random_trees(draw, n_features: int, max_depth: int = 4) -> Tree:
    """A pre-order tree; a root drawn as a leaf makes a single-leaf tree."""
    feature, threshold, left, right, value = [], [], [], [], []

    def grow(depth: int) -> int:
        node = len(feature)
        feature.append(-1)
        threshold.append(0.0)
        left.append(-1)
        right.append(-1)
        value.append(0.0)
        if depth < max_depth and draw(st.booleans()):
            feature[node] = draw(st.integers(0, n_features - 1))
            threshold[node] = draw(grid_or_float)
            left[node] = grow(depth + 1)
            right[node] = grow(depth + 1)
        else:
            value[node] = draw(st.floats(-10.0, 10.0))
        return node

    grow(0)
    return Tree(feature, threshold, left, right, value)


@st.composite
def chains(draw, n_features: int) -> Tree:
    """17 to 24 splits on one feature, each with a leaf on one side and the
    next split on the other. The thresholds fall along a chain that goes on
    to the left and rise along one that goes on to the right, so rows leave
    it at many depths, in different rounds of ``_leaves``'s checks."""
    depth = draw(st.integers(17, 24))
    on_left = draw(st.booleans())
    cuts = sorted(draw(st.lists(grid_or_float, min_size=depth, max_size=depth)), reverse=on_left)
    f = draw(st.integers(0, n_features - 1))
    scale = draw(st.floats(0.01, 1.0))
    feature, threshold, left, right, value = [], [], [], [], []

    def add() -> int:
        node = len(feature)
        for column, empty in ((feature, -1), (threshold, 0.0), (left, -1), (right, -1)):
            column.append(empty)
        value.append(scale * node)  # a distinct value for every leaf
        return node

    def grow(k: int) -> int:
        node = add()
        if k < depth:
            feature[node], threshold[node] = f, cuts[k]
            if on_left:
                left[node] = grow(k + 1)
                right[node] = add()
            else:
                left[node] = add()
                right[node] = grow(k + 1)
        return node

    grow(0)
    return Tree(feature, threshold, left, right, value)


@st.composite
def random_forests(draw) -> RandomForest:
    d = draw(st.integers(1, 3))
    trees = draw(st.lists(st.one_of(random_trees(d), chains(d)), min_size=1, max_size=5))
    return RandomForest.from_trees(trees, ForestConfig(n_trees=len(trees)), [f"f{i}" for i in range(d)])


@st.composite
def distinct_rows(draw, n_rows: int, n_features: int) -> np.ndarray:
    rows = draw(st.lists(st.tuples(*[grid_or_float] * n_features), min_size=n_rows, max_size=n_rows, unique=True))
    return np.array(rows, dtype=np.float64).reshape(n_rows, n_features)


def stumps(rng, n_trees: int) -> RandomForest:
    trees = [
        Tree([int(rng.integers(3)), -1, -1], [float(rng.choice(GRID)), 0, 0], [1, -1, -1], [2, -1, -1],
             [0.0, *rng.random(2).tolist()])
        for _ in range(n_trees)
    ]
    return RandomForest.from_trees(trees, ForestConfig(n_trees=n_trees), ["a", "b", "c"])


#: Levels between two of ``_leaves``'s checks for pairs at a leaf: few, so
#: random trees of depth up to 4 take more than one round, and the default.
LEVELS = st.sampled_from([1, 2, 3, forest_module._LEVELS_PER_CHECK])


class TestFlatTraversal:
    """r distinct rows walk ``max(1, _PAIRS_PER_GROUP // r)`` trees at a time."""

    PAIRS = 12

    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_matches_a_per_tree_walk_across_tree_groups(self, data):
        model = data.draw(random_forests())
        n_trees = len(model.trees)
        # row counts on both sides of where the trees split into one, two or
        # three groups, and of where every group holds a single tree
        groups = data.draw(st.sampled_from([1, 2, 3, n_trees]))
        rows = max(1, self.PAIRS // -(-n_trees // groups) + data.draw(st.integers(-1, 1)))
        X = data.draw(distinct_rows(rows, model.n_features))
        levels = data.draw(LEVELS)
        with mock.patch.multiple(forest_module, _PAIRS_PER_GROUP=self.PAIRS, _LEVELS_PER_CHECK=levels):
            batch = predict_batch(model, X)
            single = predict_batch(model, X[-1:])
        assert batch.tobytes() == reference_predict(model, X).tobytes()
        assert single.tobytes() == batch[-1:].tobytes()

    def test_real_group_size_boundaries(self):
        rng = np.random.default_rng(21)
        half = forest_module._PAIRS_PER_GROUP // 2
        # 2048 trees in one group, then in two, then in three; 3 trees two
        # to a group, then one
        for n_trees, rows in ((2048, 4), (2048, 5), (2048, 8), (2048, 9), (3, half), (3, half + 1)):
            model = stumps(rng, n_trees)
            # distinct rows, most of them on a threshold in the first two columns
            X = np.column_stack([rng.choice(GRID, size=(rows, 2)), rng.permutation(rows) / rows])
            batch = predict_batch(model, X)
            assert batch.tobytes() == reference_predict(model, X).tobytes()
            assert predict_batch(model, X[-1:]).tobytes() == batch[-1:].tobytes()


@st.composite
def repeated_rows(draw, n_features: int) -> np.ndarray:
    """A shuffled batch of repeats of a few distinct rows, among them rows
    that differ from another only in the sign of a zero or in one column."""
    pool = draw(st.lists(st.lists(grid_or_float, min_size=n_features, max_size=n_features), min_size=1, max_size=3))
    row, j = pool[0], draw(st.integers(0, n_features - 1))
    signed = [row[:j] + [zero] + row[j + 1 :] for zero in (0.0, -0.0)]
    changed = row[:j] + [draw(grid_or_float.filter(lambda v: v != row[j]))] + row[j + 1 :]
    pool += [*signed, changed]
    picks = draw(st.lists(st.integers(0, len(pool) - 1), min_size=1, max_size=30))
    return np.array([pool[k] for k in picks], dtype=np.float64).reshape(len(picks), n_features)


class TestRepeatedRows:
    """A batch of repeated rows scores every row exactly, whatever the tree groups."""

    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_batch_of_repeats_matches_a_per_tree_walk(self, data):
        model = data.draw(random_forests())
        X = data.draw(repeated_rows(model.n_features))
        levels = data.draw(LEVELS)
        with mock.patch.multiple(forest_module, _PAIRS_PER_GROUP=TestFlatTraversal.PAIRS, _LEVELS_PER_CHECK=levels):
            batch = predict_batch(model, X)
            alone = [predict_batch(model, X[i : i + 1]) for i in range(len(X))]
            fortran = predict_batch(model, np.asfortranarray(X))
        assert batch.tobytes() == reference_predict(model, X).tobytes()
        assert b"".join(a.tobytes() for a in alone) == batch.tobytes()
        assert fortran.tobytes() == batch.tobytes()
        # byte-equal rows score byte-equal
        first = {X[i].tobytes(): i for i in reversed(range(len(X)))}
        assert all(batch[i].tobytes() == batch[first[X[i].tobytes()]].tobytes() for i in range(len(X)))


class TestClamp:
    """The forest's raw output leaves ``predict_scores`` clamped into [0, 1]."""

    @pytest.mark.parametrize("v,expected", [(0.5, 0.5), (-0.01, 0.0), (1.2, 1.0), (0.0, 0.0), (1.0, 1.0)])
    def test_values(self, v, expected):
        rows = [Instance("i1", "bible", "a cat sat", "cat", 0.5)]
        schema = fit_schema(rows, LexiconRegistry(), FeatureConfig(enabled=frozenset({"length"})))
        leaf = Tree([-1], [0.0], [-1], [-1], [v])
        model = RandomForest.from_trees([leaf], ForestConfig(n_trees=1), list(schema.columns))
        assert predict_batch(model, [[3.0]]).tolist() == [v]
        assert predict_scores(rows, schema, model, LexiconRegistry()).tolist() == [expected]


class TestPersistence:
    def roundtrip(self, model) -> RandomForest:
        buf = io.BytesIO()
        save_model(model, buf)
        return load_model(buf.getvalue())

    def test_round_trip_predictions_identical(self):
        rng = np.random.default_rng(12)
        X = rng.normal(size=(50, 3))
        y = rng.random(50)
        model = fit(X, y, ForestConfig(n_trees=7, seed=3))
        again = self.roundtrip(model)
        probes = rng.normal(size=(200, 3))
        assert np.array_equal(predict_batch(model, probes), predict_batch(again, probes))

    def test_save_is_canonical(self):
        model = fit([[1.0], [2.0], [3.0]], [0.1, 0.5, 0.9], single_tree_config())
        a, b = io.BytesIO(), io.BytesIO()
        save_model(model, a)
        save_model(model, b)
        assert a.getvalue() == b.getvalue()

    def test_config_round_trips(self):
        cfg = ForestConfig(
            n_trees=3, max_features_per_split=2, min_samples_leaf=2,
            min_samples_split=4, max_depth=5, bootstrap=False, seed=77,
        )
        model = fit(np.arange(12.0).reshape(6, 2), np.linspace(0, 1, 6), cfg)
        assert self.roundtrip(model).config == cfg

    def test_schema_fingerprint_round_trips(self):
        model = fit([[1.0], [2.0]], [0.0, 1.0], single_tree_config(), feature_names=["length"])
        again = self.roundtrip(model)
        assert again.feature_names == ["length"]

    def test_bad_magic_rejected(self):
        with pytest.raises(DataError, match="magic"):
            load_model(b"NOTAMODEL 1\n")

    def test_version_mismatch_rejected(self):
        with pytest.raises(DataError, match="version"):
            load_model(b"LCPMODEL 2\n[schema]\nf0\n")

    def test_truncated_stream_rejected(self):
        model = fit([[1.0], [2.0], [3.0]], [0.0, 0.5, 1.0], ForestConfig(n_trees=2, seed=0))
        buf = io.BytesIO()
        save_model(model, buf)
        full = buf.getvalue()
        truncated = full[: full.index(b"[tree 1]")]
        with pytest.raises(DataError, match="truncated"):
            load_model(truncated)

    def test_garbage_node_line_rejected(self):
        text = "LCPMODEL 1\n[schema]\nf0\n[config]\nn_trees=1\nmax_features_per_split=1\n" \
               "min_samples_leaf=1\nmin_samples_split=2\nmax_depth=none\nbootstrap=true\nseed=0\n" \
               "[tree 0]\nQ what\n"
        with pytest.raises(DataError, match="bad node line"):
            load_model(text.encode())

    def test_out_of_range_feature_rejected(self):
        text = "LCPMODEL 1\n[schema]\nf0\n[config]\nn_trees=1\nmax_features_per_split=1\n" \
               "min_samples_leaf=1\nmin_samples_split=2\nmax_depth=none\nbootstrap=true\nseed=0\n" \
               "[tree 0]\nN 3 0.5 1 2\nL 0.0\nL 1.0\n"
        with pytest.raises(DataError, match="out of range"):
            load_model(text.encode())

    def test_shared_child_rejected(self):
        # both children of the root point at node 2; node 1 is unreachable
        text = "LCPMODEL 1\n[schema]\nf0\n[config]\nn_trees=1\nmax_features_per_split=1\n" \
               "min_samples_leaf=1\nmin_samples_split=2\nmax_depth=none\nbootstrap=true\nseed=0\n" \
               "[tree 0]\nN 0 0.5 2 2\nL 1.0\nL 2.0\n"
        with pytest.raises(DataError, match="parents"):
            load_model(text.encode())

    @pytest.mark.parametrize("nodes,match", [
        pytest.param("N 0 0.5 1 2 2\nL 0.0\nL 1.0\n", "bad node line", id="split-with-extra-token"),
        pytest.param("N 0 0.5 1 2\nL 0.0 1.0\nL 1.0\n", "bad node line", id="leaf-with-extra-token"),
        pytest.param("N -1 0.5 1 2\nL 0.0\nL 1.0\n", "bad node line", id="split-on-feature-minus-1"),
        pytest.param("N -1 0.5 -1 -1\n", "bad node line", id="split-without-children"),
        pytest.param("N 0 0.5 1 0\nL 1.0\nL 2.0\n", None, id="child-at-parent"),
        pytest.param("N 0 0.5 1 2\nN 0 0.5 1 3\nL 1.0\nL 2.0\n", None, id="child-before-parent"),
        pytest.param("N 0 0.5 1 2\nL 1.0\n", None, id="child-at-tree-size"),
        pytest.param("N 0 0.5 1 3\nL 1.0\nL 2.0\n", None, id="child-past-tree"),
        pytest.param("N 0 0.5 1 99999999999999999999\nL 1.0\nL 2.0\n", None, id="child-beyond-int64"),
        pytest.param("N 0 0.5 1 2\nL 1.0\nL 2.0\nL 3.0\n", "parents", id="unreachable-node"),
        pytest.param("N 0 0.5 2 1\nL 0.1\nL 0.2\n", r"\[tree 0\] node 0 .*pre-order", id="not-pre-order"),
    ])
    def test_bad_node_rejected(self, nodes, match):
        with pytest.raises(DataError, match=match):
            load_model(model_text(f"[tree 0]\n{nodes}"))

    @pytest.mark.parametrize("trees,n_trees", [
        pytest.param("[tree 0]\n", 1, id="empty-last-tree"),
        pytest.param("[tree 0]\n[tree 1]\nL 0.5\n", 2, id="empty-first-tree"),
        pytest.param("[tree 1]\nL 0.5\n[tree 0]\nL 0.5\n", 2, id="out-of-order"),
        pytest.param("[tree 0]\nL 0.5\n[tree 2]\nL 0.5\n", 2, id="skipped-index"),
        pytest.param("[tree 0]\nL 0.5\n[tree 1]\nL 0.5\n", 1, id="extra-tree"),
        pytest.param("[tree 0]\nL 0.5\n", 2, id="missing-tree"),
    ])
    def test_bad_tree_sections_rejected(self, trees, n_trees):
        assert load_model(model_text("[tree 0]\nL 0.5\n")).trees[0].value.tolist() == [0.5]
        with pytest.raises(DataError):
            load_model(model_text(trees, n_trees))

    @pytest.mark.parametrize("trees,n_trees,match", [
        pytest.param("[notes]\n[tree 0]\nL 0.5\n", 1, r"line 12: unexpected section '\[notes\]'", id="before-tree-0"),
        pytest.param("[tree 0]\n[notes]\nL 0.5\n", 1, r"line 13: bad node line '\[notes\]'", id="inside-a-tree"),
        pytest.param("[tree 0]\nL 0.5\n[tree 1]\nL 0.5\n[tree 0]\n", 2, r"line 16: bad node line '\[tree 0\]'",
                     id="repeated-header"),
    ])
    def test_section_line_where_no_header_is_expected_rejected(self, trees, n_trees, match):
        with pytest.raises(DataError, match=match):
            load_model(model_text(trees, n_trees))

    def test_bad_config_value_rejected(self):
        with pytest.raises(DataError, match=r"^model file: bad config value: .*'x'$"):
            load_model(model_text("[tree 0]\nL 0.5\n", n_trees="x"))

    def test_empty_schema_rejected(self):
        text = model_text("[tree 0]\nL 0.5\n")
        assert load_model(text).feature_names == ["f0"]
        with pytest.raises(DataError, match="^model file: empty schema$"):
            load_model(text.replace(b"[schema]\nf0\n", b"[schema]\n"))

    def test_tree_section_before_config_rejected(self):
        with pytest.raises(DataError, match=r"missing \[config\]"):
            load_model(model_text("[tree 0]\nL 0.5\n", schema="f0\n[tree 0]\nL 0.5"))

    @pytest.mark.parametrize("loaded", [False, True])
    def test_forest_rebuilt_from_its_tree_views_is_the_same(self, loaded):
        rng = np.random.default_rng(13)
        model = fit(rng.normal(size=(40, 3)), rng.random(40), ForestConfig(n_trees=4, seed=5))
        if loaded:
            model = self.roundtrip(model)
        trees = model.trees
        assert all(np.shares_memory(tree.left, model.nodes.left) for tree in trees)
        assert not trees[0].value.flags.writeable
        rebuilt = RandomForest.from_trees(trees, model.config, model.feature_names)
        a, b = io.BytesIO(), io.BytesIO()
        save_model(model, a)
        save_model(rebuilt, b)
        assert a.getvalue() == b.getvalue()
        probes = rng.normal(size=(100, 3))
        assert predict_batch(model, probes).tobytes() == predict_batch(rebuilt, probes).tobytes()


def model_text(trees: str, n_trees: int = 1, schema: str = "f0") -> bytes:
    """A model file with the given tree sections, by default over one feature."""
    return (
        f"LCPMODEL 1\n[schema]\n{schema}\n[config]\nn_trees={n_trees}\nmax_features_per_split=1\n"
        f"min_samples_leaf=1\nmin_samples_split=2\nmax_depth=none\nbootstrap=true\nseed=0\n{trees}"
    ).encode()


@cache
def valid_model_bytes() -> bytes:
    rng = np.random.default_rng(4)
    model = fit(rng.normal(size=(20, 2)), rng.random(20), ForestConfig(n_trees=2, seed=1))
    buf = io.BytesIO()
    save_model(model, buf)
    return buf.getvalue()


#: Tokens that reach the loader's index, range and number checks.
TOKENS = [b"-1", b"0", b"1", b"2", b"3", b"99", b"nan", b"inf", b"-0.0", b"1e308", b"x", b"", b"L", b"N"]


@st.composite
def mutated_models(draw) -> bytes:
    return draw(mutated(valid_model_bytes(), b" ", TOKENS))


class TestLoadModelFuzz:
    """load_model either returns a model that scores or raises DataError."""

    @staticmethod
    def loads_or_refuses(data: bytes) -> None:
        try:
            model = load_model(data)
        except DataError:
            return
        assert predict_batch(model, np.zeros((2, model.n_features))).shape == (2,)

    @settings(max_examples=300, deadline=None)
    @given(st.one_of(st.binary(max_size=200), st.binary(max_size=200).map(lambda b: b"LCPMODEL 1\n[schema]\n" + b)))
    def test_arbitrary_bytes(self, data):
        self.loads_or_refuses(data)

    @settings(max_examples=500, deadline=None)
    @given(mutated_models())
    def test_mutated_valid_model(self, data):
        self.loads_or_refuses(data)

    def test_non_finite_numbers_rejected(self):
        text = valid_model_bytes().decode()
        leaf = next(line for line in text.splitlines() if line.startswith("L "))
        split = next(line for line in text.splitlines() if line.startswith("N ")).split(" ")
        # 1e999 is in the model file's grammar and reads as inf; nan and inf are not
        for bad, match in (("1e999", "non-finite"), ("-1e999", "non-finite"), ("nan", "bad node line"),
                           ("inf", "bad node line"), ("-inf", "bad node line")):
            bad_split = " ".join([*split[:2], bad, *split[3:]])
            for old, new in ((leaf, f"L {bad}"), (" ".join(split), bad_split)):
                with pytest.raises(DataError, match=match):
                    load_model(text.replace(old, new, 1).encode())


@cache
def varied_model_bytes() -> bytes:
    """A saved model whose numbers take the forms repr gives them, exponents
    of both signs among them, with node indices of up to three digits over
    64 features: an integer read wrongly from a byte such as "L" or "e"
    would often be in range."""
    rng = np.random.default_rng(7)
    X = rng.normal(size=(80, 64)) * 10.0 ** rng.integers(-8, 9, size=64)
    y = rng.random(80) * 10.0 ** rng.integers(-9, 20, size=80)
    buf = io.BytesIO()
    save_model(fit(X, y, ForestConfig(n_trees=3, seed=2)), buf)
    return buf.getvalue()


#: Tokens a token of a node line may be replaced with: forms int and float
#: read that are outside the model file's grammar, line breaks, and
#: 2**64 + 1, which wraps to 1 in 64 bits.
LOADER_TOKENS = [
    b"+1", b"1_0", b"-1", b"007", b"nan", b"\r\n", b"\r", b" ", b"\t", b"18446744073709551617",
    b"0", b"1", b"2", b"5", b"1e-05", b"e", b"NL",
]
#: Lines a section header or the config's tree count may be replaced with.
HEADER_LINES = [
    b"[tree 0]", b"[tree 1]", b"[tree 01]", b"[tree  1]", b"[tree 1] ", b"[tree 1]\r", b"[tree 3]", b"[config]",
    b"[schema]", b"LCPMODEL 1", b"n_trees=2", b"n_trees=4", b"", b"L 0.5",
]


@st.composite
def edited_headers(draw) -> bytes:
    lines = varied_model_bytes().split(b"\n")
    heads = [k for k, line in enumerate(lines) if line.startswith((b"[", b"LCPMODEL", b"n_trees="))]
    lines[draw(st.sampled_from(heads))] = draw(st.sampled_from(HEADER_LINES))
    return b"\n".join(lines)


def truncations(data: bytes) -> st.SearchStrategy[bytes]:
    breaks = [k for k, byte in enumerate(data) if byte == ord("\n")]
    cut = st.one_of(st.integers(0, len(data)), st.sampled_from(breaks), st.sampled_from(breaks).map(lambda k: k + 1))
    return cut.map(lambda k: data[:k])


#: The model file's grammar, as the README's "Model file" gives it: a node
#: line is ``L F`` or ``N I F I I``, and a tree section's header ``[tree i]``.
INT = rb"[0-9]{1,9}"
FLOAT = rb"[+-]?([0-9]+\.?[0-9]*|\.[0-9]+)(e[+-]?[0-9]+)?"
NODE_LINE = re.compile(rb"L %s|N %s %s %s %s" % (FLOAT, INT, FLOAT, INT, INT))
HEADER_LINE = re.compile(rb"\[tree [0-9]+\]")


def in_the_grammar(line: bytes) -> bool:
    return bool(HEADER_LINE.fullmatch(line) or NODE_LINE.fullmatch(line))


def tree_lines_in_the_grammar(data: bytes) -> bool:
    """Whether each line of a model file from its first line ``[tree 0]`` on
    (or from its end) is a header or a node line, and no line before it is
    ``[tree 0]`` as ``str.splitlines`` splits the text. A final line break
    may be left out."""
    lines = data.removesuffix(b"\n").split(b"\n")
    first = lines.index(b"[tree 0]") if b"[tree 0]" in lines else len(lines)
    head = b"\n".join(lines[:first]).decode("utf-8", "replace").splitlines()
    return "[tree 0]" not in head and all(map(in_the_grammar, lines[first:]))


class TestLoadModelReference:
    """A file whose tree sections hold only headers and node lines of the
    grammar loads as reference_load_model does: to its node table, bit for
    bit, or to its DataError, word for word. Any other file is refused with
    the reference's DataError or with a bad node line."""

    @staticmethod
    def loads_as_the_reference(data: bytes) -> None:
        in_grammar = tree_lines_in_the_grammar(data)
        try:
            expected = reference_load_model(data)
        except DataError as exc:
            expected = exc
        if isinstance(expected, DataError) or not in_grammar:
            with pytest.raises(DataError) as raised:
                load_model(data)
            message = str(raised.value)
            bad_line = re.match(r"model file line \d+: bad node line ", message)
            assert message == str(expected) or not in_grammar and bad_line
            return
        model = load_model(data)
        for name in Tree.__slots__:
            got, want = getattr(model.nodes, name), getattr(expected.nodes, name)
            assert (got.dtype, got.shape, got.tobytes()) == (want.dtype, want.shape, want.tobytes()), name
        assert (model.roots.dtype, model.roots.tobytes()) == (expected.roots.dtype, expected.roots.tobytes())
        assert (model.config, model.feature_names) == (expected.config, expected.feature_names)

    @settings(max_examples=500, deadline=None)
    @given(st.one_of(mutated(varied_model_bytes(), b" ", LOADER_TOKENS), mutated_models()))
    def test_mutated_models(self, data):
        self.loads_as_the_reference(data)

    @settings(max_examples=200, deadline=None)
    @given(st.one_of(truncations(varied_model_bytes()), truncations(valid_model_bytes())))
    def test_truncated_models(self, data):
        self.loads_as_the_reference(data)

    @settings(max_examples=200, deadline=None)
    @given(edited_headers())
    def test_edited_headers(self, data):
        self.loads_as_the_reference(data)

    @pytest.mark.parametrize("pattern, replacement", [
        # only the head changes: read as text, as the reference reads it
        pytest.param(rb"LCPMODEL 1", b"LCPMODEL 1\xff", id="non-utf8-head"),
        # forms the token reader of earlier versions took
        pytest.param(rb"\n", b"\r\n", id="crlf-line-ends"),
        pytest.param(rb"\n\[tree 1\]\n", b"\n[tree 1]", id="header-run-into-a-node-line"),
        pytest.param(rb"\nL ", b"\nL \xc3\xa9", id="non-ascii-node"),
        pytest.param(rb" 1 ", b" 1\x0c", id="form-feed-line-break"),
        pytest.param(rb" 1 ", b" 0000000001 ", id="ten-digit-index"),
        pytest.param(rb" 1 ", b" 1\r", id="carriage-return-inside-a-line"),
        pytest.param(rb"\n\[tree 0\]\n", b"\n[tree 0]\r\n[tree 0]\n", id="header-line-before-the-header"),
        # a number run into the line's first token, with an empty token for it
        pytest.param(rb"\nL (\S+)\n", rb"\nL\1 \n", id="leaf-value-run-into-L"),
        pytest.param(rb"\nN (\S+) (\S+) ", rb"\nN\2 \1  ", id="threshold-run-into-N"),
    ])
    def test_files_left_to_the_token_reader(self, pattern, replacement):
        """A tree section's line outside the grammar is refused, named by its
        line number, with or without the file's final line break."""
        data = re.sub(pattern, replacement, varied_model_bytes(), count=1)
        assert data != varied_model_bytes()
        if tree_lines_in_the_grammar(data):
            self.loads_as_the_reference(data)
            self.loads_as_the_reference(data.rstrip(b"\n"))
            return
        lines = data.split(b"\n")
        bad = next(k for k in range(varied_model_bytes().split(b"\n").index(b"[tree 0]"), len(lines))
                   if not in_the_grammar(lines[k]))
        for cut in (data, data.rstrip(b"\n")):
            with pytest.raises(DataError, match=rf"^model file line {bad + 1}: bad node line "):
                load_model(cut)

    @pytest.mark.parametrize("token", [b"", b"e", b"1e", b"+1", b"-1", b"1.", b"007", b"NL", b"18446744073709551617"])
    @pytest.mark.parametrize("column", range(5))
    def test_token_of_a_split_line(self, column, token):
        lines = varied_model_bytes().split(b"\n")
        k = next(k for k, line in enumerate(lines) if line.startswith(b"N "))
        parts = lines[k].split(b" ")
        parts[column] = token
        lines[k] = b" ".join(parts)
        self.loads_as_the_reference(b"\n".join(lines))

    def test_saved_models_are_read_from_their_bytes(self):
        single_leaf = RandomForest.from_trees([Tree([-1], [0.0], [-1], [-1], [0.25])], ForestConfig(n_trees=1), ["f"])
        for data in (valid_model_bytes(), varied_model_bytes(), saved(single_leaf)):
            self.loads_as_the_reference(data)
            assert saved(load_model(io.BytesIO(data))) == data


def saved(model: RandomForest) -> bytes:
    buf = io.BytesIO()
    save_model(model, buf)
    return buf.getvalue()


@st.composite
def near_node_lines(draw) -> bytes:
    """A node line of the grammar, half the time with one token replaced by
    a string of bytes near the grammar's."""
    ints = st.from_regex(INT, fullmatch=True)
    floats = st.one_of(st.from_regex(FLOAT, fullmatch=True), st.floats().map(lambda v: repr(v).encode()))
    tokens = list(draw(st.one_of(st.tuples(st.just(b"L"), floats), st.tuples(st.just(b"N"), ints, floats, ints, ints))))
    if draw(st.booleans()):
        tokens[draw(st.integers(0, len(tokens) - 1))] = draw(st.text("0123456789.e+-NL \t\rx_", max_size=12)).encode()
    return b" ".join(tokens)


class TestModelGrammar:
    """save_model writes the README's grammar, and _read_tree reads exactly
    that grammar's node lines."""

    @settings(max_examples=200, deadline=None)
    @given(random_forests())
    def test_saved_lines_are_in_the_grammar(self, model):
        for data in (saved(model), varied_model_bytes()):
            lines = data.split(b"\n")
            assert lines[-1] == b""
            assert all(map(in_the_grammar, lines[lines.index(b"[tree 0]") : -1]))

    @settings(max_examples=500, deadline=None)
    @given(st.lists(near_node_lines(), min_size=1, max_size=4))
    def test_read_tree_takes_the_node_lines_of_the_grammar(self, lines):
        alone = [forest_module._read_tree(line + b"\n") is not None for line in lines]
        assert alone == [bool(NODE_LINE.fullmatch(line)) for line in lines]
        section = forest_module._read_tree(b"".join(line + b"\n" for line in lines))
        assert (section is not None) == all(alone)
