"""End-to-end glue: fit schema + forest, score instances, run ablations.

Predicted complexity scores leave this layer clamped to [0, 1]; the forest
itself stays a generic unclamped regressor.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import evaluation, features, forest
from .corpus import DatasetSplit, Instance
from .errors import DataError
from .evaluation import AblationRow, MetricsReport
from .features import (
    FeatureConfig,
    FeatureSchema,
    Tagger,
    distinct_inputs,
    extract_matrix,
    fit_schema,
    with_families,
)
from .forest import ForestConfig, RandomForest
from .lexicons import LexiconRegistry

EVAL_SIDES = ("dev", "train")
#: The fewest (distinct row, tree) pairs ``predict_scores`` gives a forked
#: worker, so two workers start at twice this; below it, forking costs more
#: than the second core saves (see the README).
_FORK_MIN_PAIRS = 1 << 17


def gold_vector(instances: Sequence[Instance]) -> np.ndarray:
    missing = [inst.id for inst in instances if inst.gold is None]
    if missing:
        shown = ", ".join(missing[:5]) + ("..." if len(missing) > 5 else "")
        raise DataError(f"{len(missing)} instance(s) lack a gold complexity value: {shown}")
    return np.asarray([inst.gold for inst in instances], dtype=np.float64)


@dataclass
class TrainResult:
    schema: FeatureSchema
    model: RandomForest
    report: MetricsReport | None


def predict_scores(
    instances: Sequence[Instance],
    schema: FeatureSchema,
    model: RandomForest,
    registry: LexiconRegistry,
    tagger: Tagger | None = None,
) -> np.ndarray:
    """Clamped complexity predictions for instances under a fitted pipeline.
    Each distinct input (``distinct_inputs``) is extracted and scored once.

    The distinct inputs are split into contiguous shares, each extracted and
    scored by ``forest.forked_map``: one share, in this process, below twice
    ``_FORK_MIN_PAIRS`` (distinct row, tree) pairs, else shares of at least
    ``_FORK_MIN_PAIRS`` pairs, at most one per usable CPU, each in a forked
    worker. A row's score does not depend on the rows scored with it, so the
    result is the same bytes for any share."""
    columns, names = list(schema.columns), model.feature_names
    if columns != names:
        at = next((i for i, (a, b) in enumerate(zip(columns, names)) if a != b), None)
        differ = (
            f"{len(columns)} schema columns, {len(names)} model features"
            if at is None
            else f"column {at} is {columns[at]!r} in the schema, {names[at]!r} in the model"
        )
        raise DataError(f"schema does not match the model's features: {differ}")
    representatives, where = distinct_inputs(instances, schema.config)
    most = len(representatives) * model.roots.size // _FORK_MIN_PAIRS
    workers = min(forest._usable_cpus(), most) if most > 1 else 1
    if workers > 1:
        # The registry keeps the merged views built here, and the workers inherit them.
        features.resolve_family_lexicons(registry, schema.config)
    n = len(representatives)
    bounds = [n * k // workers for k in range(workers + 1)]
    shares = [representatives[a:b] for a, b in zip(bounds, bounds[1:])]
    scores = forest.forked_map(_score_share, workers, workers, (shares, schema, model, registry, tagger))
    return np.clip(np.concatenate(scores), 0.0, 1.0)[where]


def _score_share(k: int, task: tuple) -> np.ndarray:
    """The raw scores of share k of a ``predict_scores`` ``task``."""
    shares, schema, model, registry, tagger = task
    return forest.predict_batch(model, extract_matrix(shares[k], schema, registry, tagger))


def fit_and_evaluate(
    split: DatasetSplit,
    registry: LexiconRegistry,
    feature_config: FeatureConfig,
    forest_config: ForestConfig,
    tagger: Tagger | None = None,
    eval_on: str = "dev",
    n_threads: int = 1,
) -> TrainResult:
    """Fit schema and forest on the train side, score on the chosen side.

    The report is None when the evaluation side is empty.
    """
    if eval_on not in EVAL_SIDES:
        raise ValueError(f"eval_on must be one of {EVAL_SIDES}, got {eval_on!r}")
    schema = fit_schema(split.train, registry, feature_config, tagger)
    X = extract_matrix(split.train, schema, registry, tagger)
    y = gold_vector(split.train)
    model = forest.fit(X, y, forest_config, feature_names=schema.columns, n_threads=n_threads)
    side = split.dev if eval_on == "dev" else split.train
    report = None
    if side:
        pred = predict_scores(side, schema, model, registry, tagger)
        report = evaluation.evaluate(pred, gold_vector(side))
    return TrainResult(schema=schema, model=model, report=report)


def ablation_features(baseline: FeatureConfig, candidates: Sequence[str]) -> FeatureConfig:
    """The features of every row of an ablation: the baseline's and every
    candidate's. Raises ValueError on an unknown or repeated candidate."""
    features = with_families(baseline, *candidates)
    if len(set(candidates)) != len(candidates):
        raise ValueError("duplicate candidate families")
    return features


def run_ablation(
    split: DatasetSplit,
    registry: LexiconRegistry,
    baseline: FeatureConfig,
    candidates: Sequence[str],
    forest_config: ForestConfig,
    tagger: Tagger | None = None,
    eval_on: str = "dev",
    n_threads: int = 1,
) -> list[AblationRow]:
    """Baseline-plus-one-feature ablation.

    Row 0 is the baseline configuration alone; row i adds exactly candidate i.
    Every row shares the same split and forest seed, so differences are
    attributable to the added family.
    """
    ablation_features(baseline, candidates)

    def score(config: FeatureConfig) -> MetricsReport:
        result = fit_and_evaluate(
            split, registry, config, forest_config, tagger, eval_on, n_threads
        )
        if result.report is None:
            raise DataError("ablation evaluation side is empty; nothing to score")
        return result.report

    rows = [AblationRow("baseline", score(baseline))]
    for fam in candidates:
        rows.append(AblationRow(fam, score(with_families(baseline, fam))))
    return rows
