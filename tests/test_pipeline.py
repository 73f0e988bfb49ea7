import contextlib
import math
import multiprocessing
import os
import random
from concurrent.futures import ProcessPoolExecutor
from functools import cache
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from lcpkit import features, forest, pipeline
from lcpkit.corpus import Instance, split_train_dev
from lcpkit.errors import DataError, ResourceError
from lcpkit.features import FEATURE_FAMILIES, POS_TAGSET, FeatureConfig, distinct_inputs, extract_matrix
from lcpkit.forest import ForestConfig
from lcpkit.pipeline import fit_and_evaluate, gold_vector, predict_scores, run_ablation

from conftest import binary_lexicon, continuous_lexicon, make_registry, random_word, synthetic_complexity


def toy_world(n=80, seed=0):
    """Distinct-token corpus whose gold follows the syllable/frequency recipe."""
    rng = random.Random(seed)
    words = set()
    while len(words) < n:
        words.add(random_word(rng))
    max_log = math.log1p(9999)
    freq = {}
    instances = []
    for k, w in enumerate(sorted(words)):
        freq[w] = rng.randint(1, 9999)
        gold = synthetic_complexity(w, freq[w], rng.gauss(0, 0.02), max_log)
        instances.append(Instance(f"i{k:04d}", "bible", f"the {w} was seen", w, gold))
    prevalence = {w: rng.uniform(1.0, 5.0) for w in list(sorted(words))[: int(0.7 * n)]}
    registry = make_registry(
        freq=continuous_lexicon("frequency", {w: float(c) for w, c in freq.items()}),
        prev=continuous_lexicon("prevalence", prevalence),
    )
    return instances, registry


FOREST = ForestConfig(n_trees=8, seed=11)
FEATURES = FeatureConfig(
    enabled=frozenset({"length", "syllables", "frequency", "char_trigrams", "prevalence"}),
    trigram_min_count=1,
)


class TestFitAndEvaluate:
    def test_produces_report_and_model(self):
        instances, registry = toy_world()
        split = split_train_dev(instances, 0.2, seed=3)
        result = fit_and_evaluate(split, registry, FEATURES, FOREST)
        assert result.report is not None
        assert result.report.n == len(split.dev)
        assert len(result.model.trees) == FOREST.n_trees
        assert result.model.feature_names == list(result.schema.columns)
        assert result.report.mae < 0.2

    def test_eval_on_train(self):
        instances, registry = toy_world(n=40)
        split = split_train_dev(instances, 0.2, seed=3)
        result = fit_and_evaluate(split, registry, FEATURES, FOREST, eval_on="train")
        assert result.report.n == len(split.train)

    def test_bad_eval_side_rejected(self):
        instances, registry = toy_world(n=10)
        split = split_train_dev(instances, 0.2, seed=3)
        with pytest.raises(ValueError):
            fit_and_evaluate(split, registry, FEATURES, FOREST, eval_on="test")

    def test_missing_gold_rejected(self):
        instances, registry = toy_world(n=10)
        unlabeled = [Instance("u1", "bible", "a word here", "word", None)] + instances[1:]
        split = split_train_dev(unlabeled, 0.2, seed=3)
        with pytest.raises(DataError, match="gold"):
            fit_and_evaluate(split, registry, FEATURES, FOREST)

    def test_gold_vector_lists_offenders(self):
        bad = [Instance(f"u{k}", "bible", "a word here", "word", None) for k in range(7)]
        with pytest.raises(DataError, match="u0"):
            gold_vector(bad)


class TestPredictScores:
    def test_scores_clamped_and_sized(self):
        instances, registry = toy_world()
        split = split_train_dev(instances, 0.2, seed=3)
        result = fit_and_evaluate(split, registry, FEATURES, FOREST)
        scores = predict_scores(split.dev, result.schema, result.model, registry)
        assert scores.shape == (len(split.dev),)
        assert np.all((scores >= 0.0) & (scores <= 1.0))

    def test_fingerprint_mismatch_rejected(self):
        instances, registry = toy_world(n=30)
        split = split_train_dev(instances, 0.2, seed=3)
        result = fit_and_evaluate(split, registry, FEATURES, FOREST)
        other_features = FeatureConfig(enabled=frozenset({"length", "syllables"}))
        other = fit_and_evaluate(split, registry, other_features, FOREST)
        n = len(result.model.feature_names)
        with pytest.raises(DataError, match=f"2 schema columns, {n} model features"):
            predict_scores(split.dev, other.schema, result.model, registry)
        other = fit_and_evaluate(split, registry, FeatureConfig(enabled=frozenset({"length", "frequency"})), FOREST)
        with pytest.raises(DataError, match="column 1 is 'frequency' in the schema, 'syllables' in the model"):
            predict_scores(split.dev, other.schema, result.model, registry)

    def test_empty_instances(self):
        instances, registry = toy_world(n=20)
        split = split_train_dev(instances, 0.2, seed=3)
        result = fit_and_evaluate(split, registry, FEATURES, FOREST)
        assert predict_scores([], result.schema, result.model, registry).shape == (0,)


def sentence_tagger(token: str, sentence: str) -> str:
    """A tagger that reads the unstripped token and the sentence."""
    return POS_TAGSET[(len(token) + len(sentence)) % len(POS_TAGSET)]


@cache
def fitted_world(families: frozenset[str]):
    """The toy world with every lexicon a family reads, and a pipeline
    fitted on it with ``families`` on."""
    instances, registry = toy_world(n=40)
    rng = random.Random(5)
    for name in ("aoa_1981", "aoa_2017", "concreteness_brysbaert", "concreteness_mrc", "familiarity_mrc", "arousal"):
        registry.add(continuous_lexicon(name, {inst.token: rng.uniform(1.0, 7.0) for inst in instances[::2]}))
    registry.add(binary_lexicon("prior_complexity_x", {inst.token: 1.0 for inst in instances[::3]}))
    config = FeatureConfig(enabled=families, trigram_min_count=1)
    result = fit_and_evaluate(split_train_dev(instances, 0.2, seed=3), registry, config, FOREST, sentence_tagger)
    return [inst.token for inst in instances], registry, result


@st.composite
def repeating_instances(draw, words: list[str]) -> list[Instance]:
    """Instances that repeat a few tokens, with varied whitespace around the
    token and varied sentences."""
    pool = draw(st.lists(st.sampled_from([*words[:6], words[0].upper(), "unseen"]), min_size=1, max_size=3))
    batch = []
    for k in range(draw(st.integers(1, 12))):
        word = draw(st.sampled_from(pool))
        token = draw(st.sampled_from(["", " ", "  "])) + word + draw(st.sampled_from(["", " "]))
        sentence = draw(st.sampled_from([f"the {word} was seen", f"a {word} here", "no target"]))
        batch.append(Instance(f"q{k}", "bible", sentence, token))
    return batch


@pytest.mark.parametrize(
    "families", [frozenset(FEATURE_FAMILIES), frozenset(FEATURE_FAMILIES) - {"pos"}], ids=["every_family", "no_pos"]
)
@settings(deadline=None)
@given(data=st.data())
def test_repeated_inputs_score_as_each_alone(families, data):
    """A batch that repeats inputs scores as each instance alone and as its
    whole feature matrix, and its representatives extract to the same rows."""
    words, registry, result = fitted_world(families)
    schema, model = result.schema, result.model
    batch = data.draw(repeating_instances(words))
    scores = predict_scores(batch, schema, model, registry, sentence_tagger)
    alone = [predict_scores([inst], schema, model, registry, sentence_tagger) for inst in batch]
    assert b"".join(a.tobytes() for a in alone) == scores.tobytes()
    X = extract_matrix(batch, schema, registry, sentence_tagger)
    assert np.clip(forest.predict_batch(model, X), 0.0, 1.0).tobytes() == scores.tobytes()
    representatives, where = distinct_inputs(batch, schema.config)
    assert extract_matrix(representatives, schema, registry, sentence_tagger)[where].tobytes() == X.tobytes()


def aoa_world():
    """The toy world plus both AoA lexicons, whose view is a merge."""
    instances, registry = toy_world(n=40)
    aoa = {inst.token: float(len(inst.token)) for inst in instances}
    registry.add(continuous_lexicon("aoa_1981", aoa))
    registry.add(continuous_lexicon("aoa_2017", aoa))
    return instances, registry


AOA_FEATURES = FeatureConfig(enabled=frozenset({"length", "aoa"}))


def count_calls(monkeypatch, seams) -> dict:
    """Count calls made through each ``(module, name)`` attribute."""
    calls = dict.fromkeys((name for _, name in seams), 0)
    for module, name in seams:
        real = getattr(module, name)

        def counted(*args, _name=name, _real=real, **kwargs):
            calls[_name] += 1
            return _real(*args, **kwargs)

        monkeypatch.setattr(module, name, counted)
    return calls


def test_calls_go_through_the_module_attributes_the_bench_wraps(monkeypatch):
    """lcpbench times these calls by replacing the module attributes; a call
    that bypasses them would read 0 in its trace."""
    seams = [
        (pipeline, "fit_schema"),
        (pipeline, "extract_matrix"),
        (features, "resolve_family_lexicons"),
        (features, "merge_average"),
    ]
    calls = count_calls(monkeypatch, seams)
    instances, registry = aoa_world()
    result = fit_and_evaluate(split_train_dev(instances, 0.2, seed=3), registry, AOA_FEATURES, FOREST)
    assert all(calls.values()), calls
    # A registry keeps its merged views, so only a fresh one merges again.
    _, fresh = aoa_world()
    calls.update(dict.fromkeys(calls, 0))
    predict_scores(instances[:3], result.schema, result.model, fresh)
    assert calls["extract_matrix"] == 1
    assert calls["resolve_family_lexicons"] and calls["merge_average"], calls
    calls.update(dict.fromkeys(calls, 0))
    predict_scores(instances[:3], result.schema, result.model, fresh)
    assert calls["extract_matrix"] == 1 and calls["resolve_family_lexicons"] == 1
    assert calls["merge_average"] == 0, calls


class TestMergedViews:
    def fitted(self):
        instances, registry = aoa_world()
        result = fit_and_evaluate(split_train_dev(instances, 0.2, seed=3), registry, AOA_FEATURES, FOREST)
        return instances, result

    def test_built_once_per_registry(self, monkeypatch):
        instances, result = self.fitted()
        _, registry = aoa_world()
        calls = count_calls(monkeypatch, [(features, "merge_average")])
        first = predict_scores(instances, result.schema, result.model, registry)
        second = predict_scores(instances, result.schema, result.model, registry)
        assert calls["merge_average"] == 1
        assert first.tobytes() == second.tobytes()

    def test_adding_a_lexicon_merges_again(self, monkeypatch):
        instances, result = self.fitted()
        _, registry = aoa_world()
        calls = count_calls(monkeypatch, [(features, "merge_average")])
        first = predict_scores(instances, result.schema, result.model, registry)
        registry.add(continuous_lexicon("arousal", {"word": 1.0}))
        second = predict_scores(instances, result.schema, result.model, registry)
        assert calls["merge_average"] == 2
        assert first.tobytes() == second.tobytes()


class TestAblation:
    def test_rows_and_labels(self):
        instances, registry = toy_world()
        split = split_train_dev(instances, 0.2, seed=3)
        baseline = FeatureConfig(enabled=frozenset({"length", "syllables"}))
        rows = run_ablation(split, registry, baseline, ["frequency", "prevalence"], FOREST)
        assert [r.label for r in rows] == ["baseline", "frequency", "prevalence"]

    def test_empty_candidates_is_baseline_only(self):
        instances, registry = toy_world(n=30)
        split = split_train_dev(instances, 0.2, seed=3)
        baseline = FeatureConfig(enabled=frozenset({"length", "syllables"}))
        rows = run_ablation(split, registry, baseline, [], FOREST)
        assert len(rows) == 1 and rows[0].label == "baseline"

    def test_baseline_row_matches_standalone(self):
        instances, registry = toy_world()
        split = split_train_dev(instances, 0.2, seed=3)
        baseline = FeatureConfig(enabled=frozenset({"length", "syllables", "frequency"}))
        rows = run_ablation(split, registry, baseline, ["prevalence"], FOREST)
        standalone = fit_and_evaluate(split, registry, baseline, FOREST)
        assert rows[0].report == standalone.report

    def test_reproducible(self):
        instances, registry = toy_world(n=40)
        split = split_train_dev(instances, 0.2, seed=3)
        baseline = FeatureConfig(enabled=frozenset({"length", "syllables"}))
        a = run_ablation(split, registry, baseline, ["frequency"], FOREST)
        b = run_ablation(split, registry, baseline, ["frequency"], FOREST)
        assert a == b

    def test_unknown_candidate_rejected(self):
        instances, registry = toy_world(n=10)
        split = split_train_dev(instances, 0.2, seed=3)
        baseline = FeatureConfig(enabled=frozenset({"length"}))
        with pytest.raises(ValueError, match="embeddings"):
            run_ablation(split, registry, baseline, ["embeddings"], FOREST)

    def test_duplicate_candidates_rejected(self):
        instances, registry = toy_world(n=10)
        split = split_train_dev(instances, 0.2, seed=3)
        baseline = FeatureConfig(enabled=frozenset({"length"}))
        with pytest.raises(ValueError, match="duplicate"):
            run_ablation(split, registry, baseline, ["syllables", "syllables"], FOREST)


@contextlib.contextmanager
def forked_scoring(cpus: int):
    """Every input scores in forked workers, one per usable CPU, as if there
    were ``cpus``; yields a spy on the process pool."""
    with (
        mock.patch.object(pipeline, "_FORK_MIN_PAIRS", 1),
        mock.patch.object(forest, "_usable_cpus", lambda: cpus),
        mock.patch.object(forest, "ProcessPoolExecutor", wraps=ProcessPoolExecutor) as pool,
    ):
        yield pool


@pytest.fixture(params=[2, 3], ids=["2_cpus", "3_cpus"])
def forked(request):
    with forked_scoring(request.param) as pool:
        yield pool


class TestForkedScoring:
    """Large inputs score in forked workers, one contiguous share of the
    distinct inputs each, with the in-process path's bytes."""

    @pytest.mark.parametrize(
        "families", [frozenset(FEATURE_FAMILIES), frozenset(FEATURE_FAMILIES) - {"pos"}], ids=["every_family", "no_pos"]
    )
    @pytest.mark.parametrize("cpus", [2, 3])
    @settings(deadline=None, max_examples=20)
    @given(data=st.data())
    def test_same_bytes_as_in_process(self, cpus, families, data):
        words, registry, result = fitted_world(families)
        batch = data.draw(repeating_instances(words))
        batch = batch[: len(batch) - 1 + len(batch) % 2]  # an odd count, so the shares are uneven
        args = (result.schema, result.model, registry, sentence_tagger)
        expected = predict_scores(batch, *args)
        with forked_scoring(cpus) as pool:
            assert predict_scores(batch, *args).tobytes() == expected.tobytes()
        assert pool.call_count == 1
        assert multiprocessing.active_children() == []

    def test_shares_are_contiguous_and_cover_every_input(self, forked, monkeypatch):
        words, registry, result = fitted_world(frozenset(FEATURE_FAMILIES) - {"pos"})
        batch = [Instance(f"q{k}", "bible", f"the {w} was seen", w) for k, w in enumerate(words[:7] * 2)]
        shares = []

        def spy(k, task):
            shares.append([inst.id for inst in task[0][k]])
            return score_share(k, task)

        score_share = pipeline._score_share
        monkeypatch.setattr(pipeline, "_score_share", spy)
        monkeypatch.setattr(forest, "_usable_cpus", lambda: 1)
        predict_scores(batch, result.schema, result.model, registry)
        assert shares == [["q0", "q1", "q2", "q3", "q4", "q5", "q6"]]  # one worker: one share, in process
        shares.clear()
        # without fork the shares are scored in process, so the spy sees them
        with mock.patch("multiprocessing.get_all_start_methods", return_value=["spawn"]):
            monkeypatch.setattr(forest, "_usable_cpus", lambda: 3)
            predict_scores(batch, result.schema, result.model, registry)
        assert shares == [["q0", "q1"], ["q2", "q3"], ["q4", "q5", "q6"]]

    def test_worker_error_reaches_the_caller(self, forked):
        words, registry, result = fitted_world(frozenset(FEATURE_FAMILIES))
        batch = [Instance(f"q{k}", "bible", f"the {w} was seen", w) for k, w in enumerate(words[:5])]
        with mock.patch.object(pipeline, "_FORK_MIN_PAIRS", 1 << 62), pytest.raises(ResourceError) as alone:
            predict_scores(batch, result.schema, result.model, registry)
        with pytest.raises(ResourceError) as shared:
            predict_scores(batch, result.schema, result.model, registry)
        assert forked.call_count == 1
        assert (type(shared.value), str(shared.value)) == (type(alone.value), str(alone.value))
        assert "no tagger" in str(shared.value)
        assert multiprocessing.active_children() == []

    def test_dead_worker_is_resource_error(self, forked, monkeypatch):
        words, registry, result = fitted_world(frozenset(FEATURE_FAMILIES) - {"pos"})
        batch = [Instance(f"q{k}", "bible", f"the {w} was seen", w) for k, w in enumerate(words[:5])]
        monkeypatch.setattr(pipeline, "_score_share", lambda k, task: os._exit(9))
        with pytest.raises(ResourceError, match="worker process died"):
            predict_scores(batch, result.schema, result.model, registry)
        assert multiprocessing.active_children() == []

    def test_views_merged_once_across_forked_calls(self, forked, monkeypatch, tmp_path):
        """The parent builds the merged AoA view before forking, so no worker
        merges it: every merge, in any process, appends a line to a file."""
        instances, result = TestMergedViews().fitted()
        _, registry = aoa_world()
        forked.reset_mock()
        log = tmp_path / "merges"
        merge = features.merge_average

        def logged(*args):
            with open(log, "a") as sink:
                sink.write(f"{os.getpid()}\n")
            return merge(*args)

        monkeypatch.setattr(features, "merge_average", logged)
        scores = [predict_scores(instances, result.schema, result.model, registry) for _ in range(3)]
        assert forked.call_count == 3
        assert log.read_text() == f"{os.getpid()}\n"
        assert scores[0].tobytes() == scores[1].tobytes() == scores[2].tobytes()

    def test_no_pool_below_the_threshold(self, forked, monkeypatch):
        words, registry, result = fitted_world(frozenset(FEATURE_FAMILIES) - {"pos"})
        batch = [Instance(f"q{k}", "bible", f"the {w} was seen", w) for k, w in enumerate(words[:5])]
        for least in (5 * FOREST.n_trees + 1, 5 * FOREST.n_trees // 2 + 1):  # one worker's worth, or less
            monkeypatch.setattr(pipeline, "_FORK_MIN_PAIRS", least)
            predict_scores(batch, result.schema, result.model, registry)
        forked.assert_not_called()
        monkeypatch.setattr(pipeline, "_FORK_MIN_PAIRS", 5 * FOREST.n_trees // 2)
        predict_scores(batch, result.schema, result.model, registry)
        assert forked.call_count == 1 and forked.call_args.args[0] == 2

    def test_without_fork_scores_in_process(self, forked):
        words, registry, result = fitted_world(frozenset(FEATURE_FAMILIES) - {"pos"})
        batch = [Instance(f"q{k}", "bible", f"the {w} was seen", w) for k, w in enumerate(words[:9])]
        args = (result.schema, result.model, registry)
        with mock.patch("multiprocessing.get_all_start_methods", return_value=["spawn"]):
            scores = predict_scores(batch, *args)
        forked.assert_not_called()
        with mock.patch.object(pipeline, "_FORK_MIN_PAIRS", 1 << 62):
            assert scores.tobytes() == predict_scores(batch, *args).tobytes()
