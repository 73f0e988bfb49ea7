import copy
import hashlib
import io
import math
import multiprocessing
import os
import random
import re
import subprocess
import sys
import textwrap
import threading
import tracemalloc
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

    @pytest.mark.parametrize("config,field,value", [
        (ForestConfig, "n_trees", True),
        (ForestConfig, "n_trees", 2.0),
        (ForestConfig, "max_features_per_split", True),
        (ForestConfig, "min_samples_leaf", np.float64(1.0)),
        (ForestConfig, "seed", True),
        (ForestConfig, "max_depth", 2.5),
        (ForestConfig, "max_depth", False),
        (ForestConfig, "bootstrap", "false"),
        (ForestConfig, "bootstrap", 1),
        (FeatureConfig, "trigram_min_count", True),
        (FeatureConfig, "trigram_min_count", math.nan),
        (FeatureConfig, "trigram_max_vocab", 2.5),
    ])
    def test_config_values_the_saved_files_cannot_hold_rejected(self, config, field, value):
        """An integer field takes an integer but no bool, max_depth also
        None, and bootstrap only a bool: anything else would fit but not
        save, or not load back, or not fit at all."""
        enabled = {"enabled": {"length"}} if config is FeatureConfig else {}
        with pytest.raises(ValueError, match=f"^config {field} must be"):
            config(**enabled, **{field: value})

    def test_config_integers_may_be_any_integral(self):
        cfg = ForestConfig(n_trees=np.int64(2), max_depth=np.uint8(3), seed=np.int32(4))
        assert [type(v) for v in (cfg.n_trees, cfg.max_depth, cfg.seed)] == [int, int, int]
        assert cfg == ForestConfig(n_trees=2, max_depth=3, seed=4)
        assert type(FeatureConfig(enabled={"length"}, trigram_min_count=np.int64(3)).trigram_min_count) is int

    @pytest.mark.parametrize("config,field,value,message", [
        (ForestConfig, "n_trees", 0, "n_trees must be >= 1, got 0"),
        (ForestConfig, "max_features_per_split", -3, "max_features_per_split must be >= 1, got -3"),
        (ForestConfig, "min_samples_leaf", 0, "min_samples_leaf must be >= 1, got 0"),
        (ForestConfig, "min_samples_split", np.int64(1), "min_samples_split must be >= 2, got 1"),
        (ForestConfig, "max_depth", -1, "max_depth must be None or >= 0, got -1"),
        (FeatureConfig, "trigram_min_count", 0, "trigram_min_count must be >= 1, got 0"),
        (FeatureConfig, "trigram_max_vocab", 0, "trigram_max_vocab must be >= 1, got 0"),
    ])
    def test_config_values_below_their_minimum_rejected(self, config, field, value, message):
        enabled = {"enabled": {"length"}} if config is FeatureConfig else {}
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            config(**enabled, **{field: value})

    def test_config_minimums_are_inclusive(self):
        assert ForestConfig(n_trees=1, min_samples_split=2, max_depth=0).max_depth == 0
        assert FeatureConfig(enabled={"length"}, trigram_min_count=1, trigram_max_vocab=1).trigram_max_vocab == 1

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError):
            fit([[1.0], [math.nan]], [0.0, 1.0], single_tree_config())
        with pytest.raises(ValueError):
            fit([[1.0], [2.0]], [0.0, math.inf], single_tree_config())

    @pytest.mark.parametrize("y", [[1e308, 1e308, -1e308, 0.5], [1e200, 2e200, -1e200, 0.5]], ids=["1e308", "1e200"])
    def test_targets_whose_squared_errors_could_overflow_rejected(self, y):
        # unchecked, 1e308 makes a one-leaf model of value inf, and 1e200
        # NaN sums of squared errors, so that no split is found
        with pytest.raises(ValueError, match=r"n \* max \|y\| must be below 2\*\*511, got 4 rows"):
            fit(np.arange(8.0).reshape(4, 2), y, single_tree_config())

    def test_targets_just_below_the_overflow_limit_fit(self):
        """At max |y| = 0.999 * 2**511 / n the forest is the reference's,
        predicts finite values and saves bytes that load back to the same
        bytes."""
        rng = np.random.default_rng(30)
        X = np.column_stack([rng.random((40, 2)) < 0.5, rng.integers(0, 5, size=40), rng.normal(size=40)])
        y = rng.uniform(-1.0, 1.0, size=40)
        y *= 0.999 * 2.0**511 / 40 / np.abs(y).max()
        config = ForestConfig(n_trees=3, seed=2)
        assert_fits_the_reference(X, y, config)
        model = fit(X, y, config)
        assert (model.nodes.feature >= 0).any()
        assert np.isfinite(predict_batch(model, X)).all()
        saved = model_bytes(model)
        assert model_bytes(load_model(saved)) == saved

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            fit([[1.0], [2.0]], [0.0, 1.0, 2.0], single_tree_config())

    def test_one_dimensional_x_rejected(self):
        with pytest.raises(ValueError, match="X must be 2-dimensional"):
            fit([1.0, 2.0], [0.0, 1.0], single_tree_config())

    def test_too_few_feature_names_rejected(self):
        with pytest.raises(ValueError, match="expected 2 feature names, got 1"):
            fit([[1.0, 2.0], [2.0, 1.0]], [0.0, 1.0], single_tree_config(), feature_names=["a"])

    @pytest.mark.parametrize("name", ["a\n", "[config]", "[tree 0]", "[trees"])
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

    @pytest.mark.skipif(forest_module._usable_cpus() < 2, reason="needs a second CPU for another thread to run on")
    def test_fit_runs_on_the_calling_thread_only(self):
        """Growing a tree makes no BLAS call, so N fit workers keep to N
        threads: no library thread of the process uses CPU during a fit or
        in the 0.3 s after it (a BLAS pool spins about 0.14 s after a call)."""
        code = textwrap.dedent(
            """
            import time
            import numpy as np
            from lcpkit.forest import ForestConfig, fit
            rng = np.random.default_rng(0)
            X = (rng.random((4000, 200)) < 0.2).astype(float)
            y = rng.random(4000)
            process, thread = time.process_time(), time.thread_time()
            fit(X, y, ForestConfig(n_trees=1, max_depth=4, seed=0))
            time.sleep(0.3)
            print((time.process_time() - process) - (time.thread_time() - thread))
            """
        )
        src = os.path.dirname(os.path.dirname(forest_module.__file__))
        env = dict(os.environ, PYTHONPATH=src)
        run = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
        assert float(run.stdout) < 0.05


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


def reference_tree(X, y, config: ForestConfig, t: int) -> Tree:
    """Tree t as the plain exhaustive search grows it: nodes one at a time,
    depth by depth and left to right within a depth, each searched node
    drawing its features when fewer than all are sampled and searched by
    ``_best_split`` over them; then renumbered into pre-order."""
    n, d = X.shape
    rng = np.random.default_rng(derive_seed(config.seed, t))
    k = min(config.max_features_per_split, d)
    # a node is [rows, feature, threshold, value, children]
    root = [rng.integers(0, n, size=n) if config.bootstrap else np.arange(n), -1, 0.0, 0.0, ()]
    level, depth = [root], 0
    while level:
        below = []
        for node in level:
            idx = node[0]
            ysub = y[idx]
            ymin, ymax = float(ysub.min()), float(ysub.max())
            split = None
            searched = idx.size >= config.min_samples_split and (config.max_depth is None or depth < config.max_depth)
            if searched and ymin != ymax:
                feats = np.arange(d) if k >= d else np.sort(rng.choice(d, size=k, replace=False))
                split = _best_split(X, y, idx, feats, config.min_samples_leaf)
            if split is None:
                node[3] = ymin if ymin == ymax else float(ysub.mean())
                continue
            node[1], node[2] = split
            mask = X[idx, node[1]] <= node[2]
            node[4] = ([idx[mask], -1, 0.0, 0.0, ()], [idx[~mask], -1, 0.0, 0.0, ()])
            below.extend(node[4])
        level, depth = below, depth + 1
    pre, stack = [], [root]
    while stack:
        node = stack.pop()
        pre.append(node)
        stack.extend(reversed(node[4]))
    number = {id(node): i for i, node in enumerate(pre)}
    left, right = ([number[id(node[4][side])] if node[4] else -1 for node in pre] for side in (0, 1))
    return Tree([node[1] for node in pre], [node[2] for node in pre], left, right, [node[3] for node in pre])


def assert_fits_the_reference(X, y, config: ForestConfig) -> None:
    """``fit`` grows the reference trees, byte for byte."""
    model = fit(X, y, config)
    reference = RandomForest.from_trees(
        [reference_tree(X, y, config, t) for t in range(config.n_trees)], config, model.feature_names
    )
    assert np.array_equal(model.roots, reference.roots)
    for name in Tree.__slots__:
        assert getattr(model.nodes, name).tobytes() == getattr(reference.nodes, name).tobytes(), name


@st.composite
def split_problems(draw):
    """Rows of a few "tokens" that share their binary and few-valued columns,
    like n-gram indicators, so that columns often cut a node alike; plus
    columns of adjacent floats, many-valued, duplicated and constant columns. Targets follow the token
    on a 1/40 grid (near-ties), around 1e6 (large offset), with both signs
    over several magnitudes, or scaled by 2**-420 or 2**420, where every
    sampled feature that can cut a node is verified. Up to 300 rows, so that a depth
    holds nodes on both sides of ``_GATHER_ROWS``; half the configs search
    every feature at every node, the rest sample some."""
    n = draw(st.integers(2, 300))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n_tokens = draw(st.integers(2, 8))
    token = rng.integers(0, n_tokens, size=n)
    kinds = draw(
        st.lists(st.sampled_from(["binary", "few", "adjacent", "many", "duplicate", "constant"]), min_size=1, max_size=12)
    )
    columns = []
    for kind in kinds:
        if kind == "binary":
            low, high = sorted(rng.choice([-2.5, 0.0, 1.0, 3.0], size=2, replace=False))
            column = np.where(rng.random(n_tokens)[token] < 0.4, high, low)
        elif kind == "few":
            column = rng.integers(0, rng.integers(3, 9), size=n_tokens)[token] * 0.5
        elif kind == "adjacent":
            # 1 and the next floats up: some midpoints round onto the upper value
            column = 1.0 + rng.integers(0, 4, size=n_tokens)[token] * 2.0**-52
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
        max_features_per_split=draw(st.one_of(st.integers(1, len(columns)), st.just(750))),
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


def thousands_of_rows():
    """3,000 rows: 40 sparse binary columns, five 6-valued and three
    many-valued ones."""
    rng = np.random.default_rng(5)
    n = 3000
    X = np.column_stack(
        [rng.random((n, 40)) < 0.1, rng.integers(0, 6, size=(n, 5)), np.round(rng.normal(size=(n, 3)), 3)]
    ).astype(float)
    return X, np.clip(0.2 * X[:, 0] + 0.1 * X[:, 41] / 5 + rng.normal(0, 0.2, n), 0, 1)


class TestScreenedSearch:
    """The screened search grows the trees the exhaustive search grows, bit for bit."""

    @settings(deadline=None)
    @given(split_problems(), st.one_of(st.none(), st.integers(0, 8)))
    def test_same_trees_as_the_full_search(self, problem, screened_boundaries):
        X, y, config = problem
        # features with more boundaries than the screen takes go to the exact search
        most = forest_module._SCREEN_MAX_BOUNDARIES if screened_boundaries is None else screened_boundaries
        with mock.patch.object(forest_module, "_SCREEN_MAX_BOUNDARIES", most):
            assert_fits_the_reference(X, y, config)

    def test_same_trees_on_thousands_of_rows(self):
        # large nodes, whose sums come from weighted passes over their
        # distinct rows and from parent-minus-sibling subtraction many levels deep
        X, y = thousands_of_rows()
        assert_fits_the_reference(X, y, ForestConfig(n_trees=2, seed=3))

    @staticmethod
    def assert_every_node_verifies_the_features_of_its_draw_that_cut_it(scale: float, k: int) -> None:
        """Fitting targets scaled by ``scale`` with k of 5 features per
        split, each searched node's (node, feature) pairs that reach
        ``_verify`` are exactly its draw's features that take two values on
        it; the depth's searched nodes draw in order, the generator makes no
        other draw, and the trees are the reference's."""
        rng = np.random.default_rng(8)
        X = np.column_stack([rng.random((60, 3)) < 0.5, rng.integers(0, 4, size=60), rng.normal(size=60)])
        y = np.round(rng.random(60) * 40) / 40 * scale
        config = ForestConfig(n_trees=2, max_features_per_split=k, seed=1)
        verified, checked = [], []
        real_split_depth, real_verify = forest_module._Screen.split_depth, forest_module._verify

        def verify(rank, yrows, rows, first, m, t1, t2, feat, *rest):
            for a, size, f in zip(first.tolist(), m.tolist(), feat.tolist()):
                verified.append((rows[a : a + size].tobytes(), f))
            return real_verify(rank, yrows, rows, first, m, t1, t2, feat, *rest)

        def split_depth(screen, nodes, config, tree_rng):
            replay = copy.deepcopy(tree_rng)
            before = len(verified)
            result = real_split_depth(screen, nodes, config, tree_rng)
            expected = {}
            for i in range(nodes.start.size - 1):
                rows = nodes.rows[nodes.start[i] : nodes.start[i + 1]]
                if rows.size >= config.min_samples_split and np.ptp(y[rows]) > 0:
                    assert not 2.0**-400 <= np.abs(y[rows]).max() <= 2.0**400
                    draw = np.arange(5) if k >= 5 else np.sort(replay.choice(5, size=k, replace=False))
                    cut = draw[np.ptp(X[np.ix_(rows, draw)], axis=0) > 0]
                    if cut.size:
                        expected[rows.tobytes()] = cut.tolist()
            assert replay.bit_generator.state == tree_rng.bit_generator.state
            got = {}
            for rows, f in verified[before:]:
                got.setdefault(rows, []).append(f)
            assert got == expected
            checked.extend(got)
            return result

        with mock.patch.object(forest_module._Screen, "split_depth", split_depth), \
                mock.patch.object(forest_module, "_verify", verify):
            assert_fits_the_reference(X, y, config)
        assert checked

    @pytest.mark.parametrize("scale", [2.0**-420, 2.0**420], ids=["tiny", "huge"])
    def test_targets_outside_the_trusted_range_verify_every_sampled_feature(self, scale):
        """The screen's bound is trusted only for max |y| in [2**-400,
        2**400]. Outside it, sampling 3 of 5 features, every feature of a
        node's draw that can cut it is verified, and no other."""
        self.assert_every_node_verifies_the_features_of_its_draw_that_cut_it(scale, 3)

    @pytest.mark.parametrize("scale", [2.0**-420, 2.0**420], ids=["tiny", "huge"])
    def test_targets_outside_the_trusted_range_verify_every_feature_at_every_depth(self, scale):
        # searching every feature, every feature that can cut a node is verified
        self.assert_every_node_verifies_the_features_of_its_draw_that_cut_it(scale, 750)

    @settings(deadline=None)
    @given(st.integers(8, 300), st.booleans(), st.booleans(), st.integers(0, 2**32 - 1))
    def test_sums_are_within_the_error_the_bound_assumes(self, n, gather, wide, seed):
        """Every screen state's counts are exact and its target sums within
        its ``err`` of the exact sums, for a root over a bootstrap-like sample
        (rows repeat) and, through the depth step, both children of a random
        subset of its boundaries: the smaller from its rows, the larger as
        the parent minus the smaller. ``gather`` picks a root sample of at
        most n / 8 rows, or of more. A ``wide`` root's smaller child has more
        than ``_GATHER_ROWS`` rows and at most n / 8, so ``_sums`` forms its
        sums over its distinct rows; other small children's are gathered."""
        rng = np.random.default_rng(seed)
        if wide:
            n, gather = 16 * (forest_module._GATHER_ROWS + 1 + n), True
        X = np.column_stack([rng.random((n, 3)) < 0.3, rng.integers(0, 5, size=(n, 3))]).astype(float)
        # magnitudes spread over six decades, both signs: float sums round
        y = rng.normal(size=n) * 10.0 ** rng.uniform(-3, 3, size=n)
        # the last column holds the split the children come from
        goes_left = rng.random(n) < rng.uniform(0.1, 0.9)
        screen = forest_module._Screen(np.column_stack([X, goes_left]), y, 1)
        if wide:
            # n / 16 rows from each side, so the smaller child is summed by
            # ``_sums`` rather than gathered
            idx = rng.permutation(np.concatenate([rng.choice(np.flatnonzero(goes_left == side), n // 16) for side in (0, 1)]))
        else:
            idx = rng.integers(0, n, size=rng.integers(1, n // 8 + 1) if gather else rng.integers(n // 8 + 1, n + 1))
        assert (idx.size * 8 > n) != gather
        act, sums, err = screen.root(idx)
        some = rng.random(act.size) < 0.7
        nodes = forest_module._Depth(
            0, 0, idx, np.array([0, idx.size]), act[some], sums[:, some], np.array([0, some.sum()]), np.array([err])
        )
        split = np.array([0 < goes_left[idx].sum() < idx.size])
        children = screen._depth_children(
            nodes, ForestConfig(), split, np.array([X.shape[1]]), np.array([0.5]), np.array([float(np.abs(y[idx]).sum())])
        )
        assert not wide or forest_module._GATHER_ROWS < np.diff(children.start).min() <= n // 8
        states = [(idx, act, sums, err)]
        for i in range(children.start.size - 1):
            pairs = slice(children.pairs[i], children.pairs[i + 1])
            rows = children.rows[children.start[i] : children.start[i + 1]]
            states.append((rows, children.act[pairs], children.sums[:, pairs], children.err[i]))
        for rows, act, sums, err in states:
            inside = screen.ind[np.ix_(rows, act)] == 1.0
            assert np.array_equal(sums[0], inside.sum(axis=0))
            for b in range(act.size):
                # fsum rounds the exact sum once
                near = math.fsum(y[rows][inside[:, b]].tolist())
                assert abs(Fraction(sums[1, b]) - Fraction(near)) + Fraction(math.ulp(near)) / 2 <= err

    @settings(deadline=None)
    @given(st.integers(8, 300), st.integers(0, 2**32 - 1))
    def test_depth_sums_are_within_the_error_the_bound_assumes(self, n, seed):
        """The same for every node of every depth of a tree grown a depth at
        a time: small children's sums come from one gather over all of a
        depth's nodes, larger ones' from their own pass."""
        rng = np.random.default_rng(seed)
        X = np.column_stack([rng.random((n, 3)) < 0.3, rng.integers(0, 5, size=(n, 3))]).astype(float)
        y = rng.normal(size=n) * 10.0 ** rng.uniform(-3, 3, size=n)
        depths = []
        real_split_depth = forest_module._Screen.split_depth

        def split_depth(screen, nodes, config, rng):
            depths.append(nodes)
            return real_split_depth(screen, nodes, config, rng)

        with mock.patch.object(forest_module._Screen, "split_depth", split_depth):
            fit(X, y, ForestConfig(n_trees=1, seed=seed % 1000))
        screen = forest_module._Screen(X, y, 1)
        for nodes in depths:
            for i in range(nodes.start.size - 1):
                rows = nodes.rows[nodes.start[i] : nodes.start[i + 1]]
                act, sums = nodes.act[nodes.pairs[i] : nodes.pairs[i + 1]], nodes.sums[:, nodes.pairs[i] : nodes.pairs[i + 1]]
                inside = screen.ind[np.ix_(rows, act)] == 1.0
                assert np.array_equal(sums[0], inside.sum(axis=0))
                for b in range(act.size):
                    # fsum rounds the exact sum once
                    near = math.fsum(y[rows][inside[:, b]].tolist())
                    assert abs(Fraction(sums[1, b]) - Fraction(near)) + Fraction(math.ulp(near)) / 2 <= nodes.err[i]
        assert len(depths) > 1

    @pytest.mark.parametrize("k", [4, 750])
    @pytest.mark.parametrize("seed", range(4))
    def test_a_node_with_no_feature_to_split_on_gets_no_search_at_any_depth(self, seed, k):
        """A searched node on which no feature takes two values is a leaf,
        and no verified (node, feature) pair is one of its, whether it
        samples 4 of the 9 features or searches them all. The rows are
        drawn from 40 tokens, so they repeat and some nodes end there; the
        last column takes 40 values, so it is an exact feature."""
        rng = np.random.default_rng(seed)
        token = rng.integers(0, 40, size=300)
        X = np.column_stack([
            rng.random((40, 6))[token] < 0.4, rng.integers(0, 4, size=(40, 2))[token], rng.normal(size=40)[token],
        ]).astype(float)
        y = np.round(rng.random(300) * 40) / 40
        verified, nodes_found = [], []
        real_verify, real_split_depth = forest_module._verify, forest_module._Screen.split_depth

        def verify(rank, yrows, rows, first, m, *rest):
            verified.extend(rows[a : a + k] for a, k in zip(first.tolist(), m.tolist()))
            return real_verify(rank, yrows, rows, first, m, *rest)

        def split_depth(screen, nodes, config, tree_rng):
            columns, children = real_split_depth(screen, nodes, config, tree_rng)
            for i in range(nodes.start.size - 1):
                rows = nodes.rows[nodes.start[i] : nodes.start[i + 1]]
                searched = rows.size >= config.min_samples_split and np.ptp(y[rows]) > 0
                nodes_found.append((np.ptp(X[rows], axis=0).any(), searched, columns[0][i]))
            return columns, children

        with mock.patch.object(forest_module, "_verify", verify), \
                mock.patch.object(forest_module._Screen, "split_depth", split_depth):
            fit(X, y, ForestConfig(n_trees=3, max_features_per_split=k, seed=seed))
        assert verified
        assert all(np.ptp(X[rows], axis=0).any() for rows in verified)
        ends = [feature for varies, searched, feature in nodes_found if searched and not varies]
        assert ends
        assert ends == [-1] * len(ends)

    def test_rows_that_differ_only_in_the_sign_of_zero_end_without_a_search(self):
        """Sampling 1 of the 2 features: the node draws its feature, as a
        searched node does, and ends a leaf without a search whichever it
        draws. Column 0 is screened, column 1 (20 distinct values) exact."""
        X = np.column_stack([np.r_[np.arange(20) % 2, 0.0, -0.0], np.r_[np.arange(20), 5, 5]]).astype(float)
        y = np.linspace(0.0, 1.0, 22)
        screen = forest_module._Screen(X, y, 1)
        idx = np.array([20, 21])
        act, sums, err = screen.root(idx)
        nodes = forest_module._Depth(0, 0, idx, np.array([0, 2]), act, sums, np.array([0, act.size]), np.array([err]))
        for seed in range(4):
            rng, replay = np.random.default_rng(seed), np.random.default_rng(seed)
            with mock.patch.object(forest_module, "_verify", side_effect=AssertionError("searched")):
                (feature, *_, value), children = screen.split_depth(
                    nodes, ForestConfig(max_features_per_split=1), rng
                )
            assert feature.tolist() == [-1]
            assert value.tolist() == [float(y[idx].mean())]
            assert children.start.size == 1
            replay.choice(2, size=1, replace=False)
            assert rng.bit_generator.state == replay.bit_generator.state

    def test_rows_that_differ_only_in_the_sign_of_zero_end_without_a_search_at_any_depth(self):
        # column 0 is screened, column 1 (20 distinct values) is exact
        X = np.column_stack([np.r_[np.arange(20) % 2, 0.0, -0.0], np.r_[np.arange(20), 5, 5]]).astype(float)
        y = np.linspace(0.0, 1.0, 22)
        screen = forest_module._Screen(X, y, 1)
        idx = np.array([20, 21])
        act, sums, err = screen.root(idx)
        nodes = forest_module._Depth(0, 0, idx, np.array([0, 2]), act, sums, np.array([0, act.size]), np.array([err]))
        with mock.patch.object(forest_module, "_verify", side_effect=AssertionError("searched")):
            (feature, *_), children = screen.split_depth(nodes, ForestConfig(), np.random.default_rng(0))
        assert feature.tolist() == [-1]
        assert children.start.size == 1

    @settings(deadline=None)
    @given(st.integers(18, 600), st.booleans(), st.integers(0, 2**32 - 1))
    def test_rank_and_indicator_follow_each_columns_distinct_values(self, n, fortran, seed):
        """``rank[f]`` is each value's index among column f's distinct
        values, as ``np.unique`` gives it, and ``ind[:, b]`` is ``x <= v``
        for the j-th distinct value v of ``feature[b]``, where b is that
        feature's j-th boundary. Columns: signed zeros, alone and beside two
        other values, adjacent floats, a constant, and 1, 16 and 17
        boundaries; the last is exact, the constants neither screened nor
        exact. Columns of at most two values and the others are ranked
        apart, 16 columns at a time, so the whole matrix is taken twice
        over, and a matrix with none of the first kind and one with none of
        the second are checked too."""
        rng = np.random.default_rng(seed)

        def column(values):
            values = np.asarray(values, dtype=float)
            return rng.permutation(np.concatenate([values, rng.choice(values, size=n - values.size)]))

        X = np.column_stack([
            column([-0.0, 0.0, 1.0]),
            column(1.0 + np.arange(4) * 2.0**-52),
            np.full(n, 3.0),
            column([-1.5, 2.0]),
            column(rng.normal(size=17)),
            column(rng.normal(size=18)),
            column([-0.0, 0.0]),
            column([-0.0, 1.0]),
            column([-1.0, np.nextafter(-1.0, 0.0)]),
            column([0.0, 1e-300]),
            column([-0.0, 0.0, 1.0, 2.0]),
        ])
        X = np.column_stack([X, X])  # 22 columns: two blocks of the comparison
        every = [0] + [1] * 3 + [3] + [4] * 16 + [7, 8, 9] + [10] * 2
        for cols, exact, feature in [
            (range(22), [5, 16], every + [f + 11 for f in every]),
            ([1, 4, 5], [2], [0] * 3 + [1] * 16),
            ([0, 2, 3, 6, 7, 8, 9], [], [0, 2, 4, 5, 6]),
        ]:
            part = np.asfortranarray(X[:, cols]) if fortran else np.ascontiguousarray(X[:, cols])
            screen = forest_module._Screen(part, rng.random(n), 1)
            for f in range(part.shape[1]):
                assert np.array_equal(screen.rank[f], np.unique(part[:, f], return_inverse=True)[1])
            assert screen.exact.tolist() == exact
            assert screen.feature.tolist() == feature
            assert screen.ind.dtype == bool
            first = np.searchsorted(screen.feature, screen.feature)
            for b, f in enumerate(screen.feature.tolist()):
                assert np.array_equal(screen.ind[:, b], part[:, f] <= np.unique(part[:, f])[b - first[b]])

    @pytest.mark.parametrize("order", ["C", "F"])
    def test_building_the_screen_copies_less_than_an_eighth_of_x(self, order):
        """Only the columns of more than two values are sorted, and the
        others are compared a block of columns at a time: beyond the ranks
        and the one-byte indicator matrix it keeps, the build needs less
        than one byte per cell of X, and it peaks at three quarters of X's
        bytes."""
        rng = np.random.default_rng(24)
        X = np.column_stack([rng.random((4000, 295)) < 0.05, rng.normal(size=(4000, 5))]).astype(float, order=order)
        y = rng.random(4000)
        tracemalloc.start()
        try:
            screen = forest_module._Screen(X, y, 1)
            held, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert screen.exact.size == 5
        assert peak <= 0.75 * X.nbytes
        assert peak - held < X.nbytes / 8

    @pytest.mark.parametrize(
        "data,config,sha",
        [
            pytest.param(
                golden_data,
                ForestConfig(n_trees=3, max_features_per_split=12, min_samples_leaf=2, seed=5),
                "d1f9fc78b80370463845a697640806c30f104a36f71a2e5355620841055fa18e",
                id="golden-k12",
            ),
            pytest.param(
                golden_data,
                ForestConfig(n_trees=3, seed=5),
                "2a3ec737acea0405c2b54db5c506e10181b7a137e630f6fa0ae80b34baa1c177",
                id="golden",
            ),
            pytest.param(
                thousands_of_rows,
                ForestConfig(n_trees=2, min_samples_leaf=2, seed=3),
                "28f4aaccacdf44228daf1276871e533da44236be58f50813ac305221fb4b2d9d",
                id="thousands-min_samples_leaf=2",
            ),
            pytest.param(
                thousands_of_rows,
                ForestConfig(n_trees=2, max_depth=9, seed=3),
                "0bfcfd7b843612430b3db8c120fc32bfdb839ec168cce916183c175764d34e73",
                id="thousands-max_depth=9",
            ),
            pytest.param(
                thousands_of_rows,
                ForestConfig(n_trees=2, bootstrap=False, seed=3),
                "654dc224785e29bf5a0f53750ccb60c27d459e7281c6e37a3a7a70d3b0d600f6",
                id="thousands-bootstrap=False",
            ),
            pytest.param(
                thousands_of_rows,
                ForestConfig(n_trees=2, min_samples_split=10, seed=3),
                "7dc01e8c19bf98979058347deb605f0d09e87203d50fca7951fec64187b02197",
                id="thousands-min_samples_split=10",
            ),
        ],
    )
    def test_golden_model_bytes(self, data, config, sha):
        # the golden hash is that of the exhaustive search before screening,
        # and golden-k12's that of the reference grower (``reference_tree``);
        # the thousands-of-rows hashes those of the one-node-at-a-time grower
        # before trees grew a depth at a time
        X, y = data()
        assert model_sha256(fit(X, y, config)) == sha

    def test_node_totals_match_numpy_sums_bit_for_bit(self):
        """``_totals`` gives each node's ``np.sum(v)`` and ``np.sum(v * v)``
        bits, for every node length up to 300 and some longer, and 0.0 for
        the nodes ``which`` leaves out."""
        rng = np.random.default_rng(27)
        lengths = [*range(1, 301), 511, 512, 513, 1000, 1024, 4097, 6130]
        sizes = np.repeat(lengths, rng.integers(1, 5, size=len(lengths)))
        rng.shuffle(sizes)
        start = np.concatenate([[0], np.cumsum(sizes)])
        ys = rng.normal(size=start[-1]) * 10.0 ** rng.uniform(-3, 3, size=start[-1])
        which = rng.random(sizes.size) < 0.9
        t1, t2 = forest_module._totals(ys, start, which)
        nodes = [ys[a:b] for a, b in zip(start[:-1], start[1:])]
        assert t1.tobytes() == np.array([np.sum(v) if w else 0.0 for v, w in zip(nodes, which)]).tobytes()
        assert t2.tobytes() == np.array([np.sum(v * v) if w else 0.0 for v, w in zip(nodes, which)]).tobytes()


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

    def test_one_dimensional_probe_rejected(self):
        model = fit([[1.0], [2.0]], [0.0, 1.0], single_tree_config())
        with pytest.raises(ValueError, match="X must be 2-dimensional"):
            predict_batch(model, [1.0])

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
        pairs = forest_module._PAIRS_PER_GROUP
        one, two, half = pairs // 2048, pairs // 1024, pairs // 2
        # 2048 trees in one group, then in two, then in three; 3 trees two
        # to a group, then one
        cases = ((2048, one), (2048, one + 1), (2048, two), (2048, two + 1), (3, half), (3, half + 1))
        assert [-(-n_trees // (pairs // rows)) for n_trees, rows in cases] == [1, 2, 2, 3, 2, 3]
        for n_trees, rows in cases:
            model = stumps(rng, n_trees)
            # distinct rows, most of them on a threshold in the first two columns
            X = np.column_stack([rng.choice(GRID, size=(rows, 2)), rng.permutation(rows) / rows])
            batch = predict_batch(model, X)
            assert batch.tobytes() == reference_predict(model, X).tobytes()
            assert predict_batch(model, X[-1:]).tobytes() == batch[-1:].tobytes()


    def test_memory_layout_does_not_change_the_bytes(self):
        """C-ordered, Fortran-ordered and strided copies of one batch score
        the same bytes: the walk reads cell (row, f) of a column-major copy."""
        rng = np.random.default_rng(29)
        X = rng.choice(GRID, size=(600, 4))
        model = fit(X, rng.random(600), ForestConfig(n_trees=5, max_features_per_split=2, seed=2))
        wide = np.empty((1200, 4))
        wide[::2] = X
        expected = reference_predict(model, X).tobytes()
        for layout in (np.ascontiguousarray(X), np.asfortranarray(X), wide[::2]):
            assert predict_batch(model, layout).tobytes() == expected


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

    def test_save_holds_at_most_one_tree_section_at_a_time(self):
        rng = np.random.default_rng(0)
        model = fit(rng.normal(size=(600, 8)), rng.random(600), ForestConfig(n_trees=24, seed=1))

        class CountingSink:
            written = 0

            def write(self, data: bytes) -> None:
                self.written += len(data)

        sink = CountingSink()
        tracemalloc.start()
        try:
            save_model(model, sink)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < sink.written

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

    def test_names_holding_other_line_breaks_round_trip(self):
        """The model file's lines end at ``\\n`` only, so a name holding any
        other line break saves and loads verbatim."""
        names = [f"a{c}b" for c in "\r\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029"] + ["a\r"]
        rng = np.random.default_rng(5)
        model = fit(rng.normal(size=(20, len(names))), rng.random(20), ForestConfig(n_trees=2, seed=1),
                    feature_names=names)
        saved = io.BytesIO()
        save_model(model, saved)
        again = load_model(saved.getvalue())
        assert again.feature_names == names
        resaved = io.BytesIO()
        save_model(again, resaved)
        assert resaved.getvalue() == saved.getvalue()

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

    def test_later_tree_section_inside_schema_rejected(self):
        # a schema line that opens a later tree, before the [config] line
        with pytest.raises(DataError, match=r"^model file: missing \[config\] section$"):
            load_model(model_text("[tree 0]\nL 0.5\n", schema="f0\n[tree 1]"))

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
    (or from its end) is a header or a node line. A final line break may be
    left out."""
    lines = data.removesuffix(b"\n").split(b"\n")
    first = lines.index(b"[tree 0]") if b"[tree 0]" in lines else len(lines)
    return all(map(in_the_grammar, lines[first:]))


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
