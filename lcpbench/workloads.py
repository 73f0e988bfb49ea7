"""Run one benchmark workload in a fresh process and print its result.

    PYTHONPATH=src python3 lcpbench/workloads.py --workload train \\
        --inputs DIR --model-dir DIR --seconds 10 --trace 0

``--inputs`` holds the seeded input files that run.py wrote, ``--model-dir``
the lexicons and the paper-configuration model that prepare.py built. The
process prints one JSON object. With ``--trace 0`` it holds the end-to-end
metrics. With ``--trace 1`` the workload runs once untraced and once with
spans around every layer call, and the object holds the per-layer metrics
and the tracing overhead. ``ru_maxrss`` is a per-process high-water mark,
which is why each workload gets a process of its own.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import platform
import resource
import statistics
import time
from pathlib import Path

import numpy as np

import prepare
from prepare import load_registry
from spans import Tracer

from lcpkit import evaluation, features, forest, pipeline
from lcpkit.corpus import band_of, parse_dataset, split_train_dev
from lcpkit.evaluation import evaluate
from lcpkit.features import FeatureConfig, FeatureSchema, resolve_family_lexicons
from lcpkit.forest import ForestConfig, load_model, save_model
from lcpkit.lexicons import coverage
from lcpkit.pipeline import fit_and_evaluate, predict_scores

#: Trees per training fit: two, so a fit keeps both of a 2-core machine busy.
TRAIN_TREES = 2
SETUP_REPEATS = 5
#: The reference task's median time at the machine speed the bounds were
#: measured at (2-core x86_64 VM, Python 3.11, numpy 2.4).
REFERENCE_MS = 10.0
#: Reference runs right after each set-up, which set-up times are scaled by.
SETUP_REFERENCE_RUNS = 10


class Tally:
    """Operations attempted and failed; a failed correctness check is a failure."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []

    def check(self, what: str, ok: bool) -> None:
        self.attempted += 1
        if not ok:
            self.failures.append(what)

    def attempt(self, what: str, fn):
        """Run ``fn`` as one operation; return its result, or None if it raised."""
        self.attempted += 1
        try:
            return fn()
        except Exception as exc:  # a failed operation is counted, not fatal
            self.failures.append(f"{what}: {exc!r}")
            return None


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def in_unit_interval(pred: np.ndarray) -> bool:
    return bool(np.all(np.isfinite(pred)) and np.all((pred >= 0.0) & (pred <= 1.0)))


def model_bytes(model) -> bytes:
    buf = io.BytesIO()
    save_model(model, buf)
    return buf.getvalue()


def tree_depth(tree) -> int:
    depth = np.zeros(tree.n_nodes, dtype=np.int64)
    for node in range(tree.n_nodes):  # pre-order: parents precede children
        if tree.feature[node] >= 0:
            depth[tree.left[node]] = depth[tree.right[node]] = depth[node] + 1
    return int(depth.max())


def read_instances(tracer: Tracer, path: Path, has_gold: bool):
    with tracer.span("corpus.parse"):
        return parse_dataset(path.read_bytes(), has_gold=has_gold)


class Reference:
    """A fixed task outside lcpkit, timed next to the work to gauge machine speed.

    On a shared machine the same set-ups and single-row calls run up to 1.6
    times slower for minutes at a time, and this task, timed right after
    them, slows with them: a dict merge like the AoA lexicon merge, and a
    column sort. Dividing their times by the task's median time keeps that
    drift out of the end-to-end metrics. No change to lcpkit can change the
    task.
    """

    def __init__(self):
        rng = np.random.default_rng(0)
        keys = [f"w{i}" for i in range(60_000)]
        self.first = dict(zip(keys[:40_000], rng.random(40_000).tolist()))
        self.second = dict(zip(keys[::2], rng.random(30_000).tolist()))
        self.columns = rng.random((4096, 32))

    def once(self) -> None:
        merged = dict(self.first)
        for key, value in self.second.items():
            merged[key] = (merged.get(key, value) + value) / 2
        np.sort(self.columns, axis=0).cumsum(axis=0)


class Workload:
    """setup() loads what the first operation needs, op() is the timed unit,
    checks() verifies outputs and records the model and predictions."""

    def __init__(self, inputs: Path, model_dir: Path, threads: int, tally: Tally):
        self.inputs = inputs
        self.model_dir = model_dir
        self.threads = threads
        self.tally = tally
        self.instances: list = []  # the rows the workload reads
        self.model = None
        self.schema = None
        self.registry = None
        self.model_data = b""
        self.predictions = np.zeros(0)
        self.report = None  # evaluation.MetricsReport against held-out gold
        self.reference = Reference()

    def load_inputs(self, tracer: Tracer) -> None:
        """Read input that is neither set-up nor part of an operation."""

    def after_op(self, tracer: Tracer) -> None:
        """Runs after each operation, outside its timing."""

    def time_scale(self, tracer: Tracer) -> float:
        """Factor by which the end-to-end metrics scale operation times."""
        return 1.0

    def check_roundtrip(self, tracer: Tracer) -> None:
        with tracer.span("check.roundtrip"):
            with tracer.span("forest.load"):
                loaded = load_model(self.model_data)
            with tracer.span("forest.save"):
                again = model_bytes(loaded)
        self.tally.check("save -> load -> save is byte-identical", again == self.model_data)


class Train(Workload):
    """parse -> split -> fit_and_evaluate -> save_model, as ``lcp train`` does."""

    def setup(self, tracer: Tracer) -> None:
        self.instances = read_instances(tracer, self.inputs / "corpus.tsv", has_gold=True)
        self.registry = load_registry(self.model_dir, tracer)
        self.config = FeatureConfig.preset(prepare.PRESET)
        self.forest_config = ForestConfig(
            n_trees=TRAIN_TREES,
            max_features_per_split=prepare.PAPER_MAX_FEATURES,
            seed=prepare.RUN_SEED,
        )
        self.model_shas: set[str] = set()

    def fit(self, threads: int):
        self.split = split_train_dev(self.instances, prepare.DEV_FRACTION, prepare.RUN_SEED)
        return fit_and_evaluate(self.split, self.registry, self.config, self.forest_config, n_threads=threads)

    def op(self, tracer: Tracer, i: int) -> None:
        with tracer.span("pipeline.fit_and_evaluate"):
            result = self.fit(self.threads)
        model_path = self.inputs / "train.lcpmodel"
        with tracer.span("forest.save"):
            with open(model_path, "wb") as sink:
                save_model(result.model, sink)
        model_path.with_name(model_path.name + ".schema.json").write_text(
            result.schema.to_json(), encoding="utf-8"
        )
        self.result = result
        self.model_data = model_path.read_bytes()
        self.model_shas.add(sha256(self.model_data))

    def checks(self, tracer: Tracer) -> None:
        self.tally.check("every training fit writes the same model bytes", len(self.model_shas) == 1)
        self.model, self.schema = self.result.model, self.result.schema
        self.check_roundtrip(tracer)
        other = 1 if self.threads > 1 else 2
        with tracer.span("check.threads"):
            single = self.tally.attempt(f"fit at {other} thread(s)", lambda: self.fit(other))
        self.tally.check(
            f"fits at {other} and {self.threads} threads give identical model bytes",
            single is not None and model_bytes(single.model) == self.model_data,
        )
        with tracer.span("pipeline.predict_scores"):
            self.predictions = predict_scores(self.split.dev, self.schema, self.model, self.registry)
        self.tally.check("dev predictions are finite and in [0, 1]", in_unit_interval(self.predictions))
        self.report = self.result.report
        self.tally.check(
            "fit_and_evaluate reports on the dev split",
            self.report is not None and self.report.n == len(self.split.dev),
        )

    def headline(self, tracer: Tracer) -> dict:
        return {"train_s": (statistics.median(op_seconds(tracer)), "s")}


class Predict(Workload):
    """Load lexicons, schema and model once, then score unlabeled input."""

    def setup(self, tracer: Tracer) -> None:
        self.registry = load_registry(self.model_dir, tracer)
        with tracer.span("features.load_schema"):
            text = (self.model_dir / "model.lcpmodel.schema.json").read_bytes()
            self.schema = FeatureSchema.from_json(text)
        with tracer.span("forest.load"):
            self.model_data = (self.model_dir / "model.lcpmodel").read_bytes()
            self.model = load_model(self.model_data)

    def score(self, tracer: Tracer, instances) -> np.ndarray:
        with tracer.span("pipeline.predict_scores"):
            return predict_scores(instances, self.schema, self.model, self.registry)

    def check_predictions(self, tracer: Tracer, predictions: np.ndarray) -> None:
        """Range check, and quality against the gold the generator kept aside."""
        self.predictions = predictions
        self.tally.check("predictions are finite and in [0, 1]", in_unit_interval(predictions))
        gold = json.loads((self.inputs / "gold.json").read_text(encoding="utf-8"))
        with tracer.span("evaluation.evaluate"):
            self.report = evaluate(predictions, np.array(gold))


class PredictBatch(Predict):
    """One large unlabeled file in one predict_scores call, written as TSV."""

    def setup(self, tracer: Tracer) -> None:
        super().setup(tracer)
        self.outputs: set[str] = set()

    def op(self, tracer: Tracer, i: int) -> None:
        self.instances = read_instances(tracer, self.inputs / "batch.tsv", has_gold=False)
        scores = self.score(tracer, self.instances)
        lines = ["id\tprediction\tband"]
        for inst, score in zip(self.instances, scores):
            lines.append(f"{inst.id}\t{score:.3f}\t{band_of(float(score)).value}")
        out = ("\n".join(lines) + "\n").encode("utf-8")
        (self.inputs / "predictions.tsv").write_bytes(out)
        self.scores = scores
        self.outputs.add(sha256(out))

    def checks(self, tracer: Tracer) -> None:
        self.tally.check("every batch call writes the same predictions", len(self.outputs) == 1)
        self.check_predictions(tracer, self.scores)
        self.check_roundtrip(tracer)

    def headline(self, tracer: Tracer) -> dict:
        return {"batch_rows_per_s": (len(self.instances) / statistics.median(op_seconds(tracer)), "1/s")}


class PredictSingle(Predict):
    """Closed loop, one caller: one instance per predict_scores call.

    Call times are scaled to the speed at which the reference task takes
    REFERENCE_MS; the task runs once after each call.
    """

    def load_inputs(self, tracer: Tracer) -> None:
        self.instances = read_instances(tracer, self.inputs / "queries.tsv", has_gold=False)

    def setup(self, tracer: Tracer) -> None:
        super().setup(tracer)
        self.singles: list[tuple[int, float]] = []

    def op(self, tracer: Tracer, i: int) -> None:
        k = i % len(self.instances)
        score = self.score(tracer, [self.instances[k]])
        self.singles.append((k, float(score[0])))

    def after_op(self, tracer: Tracer) -> None:
        with tracer.span("reference"):
            self.reference.once()

    def time_scale(self, tracer: Tracer) -> float:
        return REFERENCE_MS / reference_ms(tracer)

    def checks(self, tracer: Tracer) -> None:
        batch = self.score(tracer, self.instances)
        for k, score in self.singles:
            # bit for bit: compare the IEEE-754 encodings
            same = np.float64(score).tobytes() == np.float64(batch[k]).tobytes()
            self.tally.check(f"single result for query {k} equals its batch score", same)
        self.check_predictions(tracer, batch)
        self.check_roundtrip(tracer)

    def headline(self, tracer: Tracer) -> dict:
        ops = op_seconds(tracer)
        return {
            "single_p50_ms": (1000 * statistics.median(ops), "ms"),
            "single_p90_ms": (1000 * percentile(ops, 90), "ms"),
            "reference_ms": (reference_ms(tracer), "ms"),
        }


WORKLOADS = {"train": Train, "predict_batch": PredictBatch, "predict_single": PredictSingle}


def measure(tracer: Tracer, workload: Workload, seconds: float) -> None:
    """Closed loop: run operations back to back until ``seconds`` have passed."""
    deadline = time.perf_counter() + seconds
    i = 0
    while i == 0 or time.perf_counter() < deadline:
        with tracer.span("op"):
            workload.tally.attempt(f"operation {i}", lambda: workload.op(tracer, i))
        workload.after_op(tracer)
        i += 1


def instrument(tracer: Tracer) -> None:
    """Spans around the calls lcpkit makes between its own layers."""

    def matrix_counts(X):
        return {"rows": int(X.shape[0]), "cells": int(X.size), "nonzero": int(np.count_nonzero(X))}

    tracer.wrap(pipeline, "fit_schema", "features.fit_schema")
    tracer.wrap(pipeline, "extract_matrix", "features.extract", count=matrix_counts)
    tracer.wrap(pipeline, "predict_scores", "pipeline.predict_scores")
    tracer.wrap(features, "resolve_family_lexicons", "features.resolve")
    tracer.wrap(features, "merge_average", "lexicons.merge_aoa")
    tracer.wrap(forest, "fit", "forest.fit")
    tracer.wrap(forest, "predict_batch", "forest.predict_batch", count=lambda p: {"rows": len(p)})
    tracer.wrap(evaluation, "evaluate", "evaluation.evaluate")


def percentile(values: list[float], q: int) -> float:
    """q-th percentile, linear between order statistics (q in 1..99)."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def op_seconds(tracer: Tracer) -> list[float]:
    return [s.seconds for s in tracer.named("op")]


def reference_ms(tracer: Tracer, name: str = "reference") -> float:
    return 1000 * statistics.median(s.seconds for s in tracer.named(name))


def setup_seconds(tracer: Tracer) -> float:
    return statistics.median(s.seconds for s in tracer.named("setup"))


def end_to_end(w: Workload, tracer: Tracer) -> dict:
    """Set-up times are scaled to the speed at which the reference takes REFERENCE_MS."""
    setup_scale = REFERENCE_MS / reference_ms(tracer, "setup.reference")
    scale = w.time_scale(tracer)
    ops = [scale * s for s in op_seconds(tracer)]
    rep = w.report
    return {
        "setup_s": (setup_scale * setup_seconds(tracer), "s"),
        "op_p50_ms": (1000 * statistics.median(ops), "ms"),
        "op_p90_ms": (1000 * percentile(ops, 90), "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "dev_r": (rep.pearson_r, "1"),
        "dev_rho": (rep.spearman_rho, "1"),
        "dev_mae": (rep.mae, "1"),
        "dev_mse": (rep.mse, "1"),
    }


def per_layer(w: Workload, traced: Tracer, plain: Tracer) -> dict:
    ops = traced.named("op")

    def per_op(name: str) -> list[float]:
        return [sum(s.seconds for s in traced.within(op, name)) for op in ops]

    def per_op_median(name: str, scale: float = 1.0) -> float:
        return scale * statistics.median(per_op(name))

    def per_call_median(name: str, scale: float = 1.0) -> float:
        spans = traced.named(name)
        return scale * statistics.median(s.seconds for s in spans) if spans else 0.0

    def per_op_self(name: str, scale: float) -> float:
        return scale * statistics.median(
            sum(traced.self_seconds(s) for s in traced.within(op, name)) for op in ops
        )

    def setup_total(name: str) -> float:
        return statistics.median(
            sum(s.seconds for s in traced.within(r, name)) for r in traced.named("setup")
        )

    def per_row(name: str, scale: float) -> float:
        per = []
        for op in ops:
            spans = traced.within(op, name)
            rows = sum(s.counts.get("rows", 0) for s in spans)
            if rows:
                per.append(scale * sum(s.seconds for s in spans) / rows)
        return statistics.median(per) if per else 0.0

    extracts = [s for s in traced.spans if s.name == "features.extract"]
    cells = sum(s.counts["cells"] for s in extracts)
    threads_root = traced.named("check.threads")
    single_fit = traced.within(threads_root[0], "forest.fit") if threads_root else []
    fit_1 = single_fit[0].seconds if single_fit else 0.0
    fit_n = per_op_median("forest.fit")
    untraced_p50 = w.time_scale(plain) * statistics.median(op_seconds(plain))
    traced_p50 = w.time_scale(traced) * statistics.median(s.seconds for s in ops)
    trees = w.model.trees
    entries = sum(w.registry.get(n).source_count for n in w.registry.names())
    vocab = {inst.token.strip() for inst in w.instances}
    views = resolve_family_lexicons(w.registry, w.schema.config)
    extract_row_ms = per_row("features.extract", 1000.0)

    metrics = {
        "corpus.parse_s": (per_call_median("corpus.parse"), "s"),
        "corpus.rows": (len(w.instances), "count"),
        "corpus.distinct_tokens": (len(vocab), "count"),
        "lexicons.load_s": (setup_total("lexicons.load"), "s"),
        "lexicons.entries": (entries, "count"),
        "lexicons.merge_aoa_ms": (per_op_median("lexicons.merge_aoa", 1000.0), "ms"),
        "features.fit_schema_s": (per_op_median("features.fit_schema"), "s"),
        "features.extract_s": (per_op_median("features.extract"), "s"),
        "features.extract_rows_per_s": (1000.0 / extract_row_ms if extract_row_ms else 0.0, "1/s"),
        "features.extract_row_ms": (extract_row_ms, "ms"),
        "features.resolve_ms": (per_op_median("features.resolve", 1000.0), "ms"),
        "features.columns": (len(w.schema.columns), "count"),
        "features.trigram_vocab": (len(w.schema.trigram_vocab), "count"),
        "features.density": (sum(s.counts["nonzero"] for s in extracts) / cells if cells else 0.0, "share"),
        "forest.fit_s": (fit_n, "s"),
        "forest.fit_tree_s": (fit_1 / TRAIN_TREES if fit_1 else 0.0, "s"),
        "forest.fit_speedup": (fit_1 / fit_n if fit_1 and fit_n else 0.0, "ratio"),
        "forest.nodes_per_tree": (sum(t.n_nodes for t in trees) / len(trees), "count"),
        "forest.depth_max": (max(tree_depth(t) for t in trees), "count"),
        "forest.model_bytes": (len(w.model_data), "bytes"),
        "forest.save_s": (per_call_median("forest.save"), "s"),
        "forest.load_s": (per_call_median("forest.load"), "s"),
        "forest.predict_batch_s": (per_op_median("forest.predict_batch"), "s"),
        "forest.predict_row_ms": (per_row("forest.predict_batch", 1000.0), "ms"),
        "pipeline.fit_and_evaluate_s": (per_op_median("pipeline.fit_and_evaluate"), "s"),
        "pipeline.fit_and_evaluate_self_s": (per_op_self("pipeline.fit_and_evaluate", 1.0), "s"),
        "pipeline.predict_scores_ms": (per_op_median("pipeline.predict_scores", 1000.0), "ms"),
        "pipeline.predict_scores_self_ms": (per_op_self("pipeline.predict_scores", 1000.0), "ms"),
        "evaluation.evaluate_ms": (per_call_median("evaluation.evaluate", 1000.0), "ms"),
        "tracing.overhead_pct": (100.0 * (traced_p50 - untraced_p50) / untraced_p50, "%"),
        "tracing.spans": (len(traced.spans), "count"),
    }
    for family, lex in sorted(views.items()):
        metrics[f"lexicons.coverage.{family}"] = (coverage(lex, vocab).fraction, "share")
    return metrics


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--inputs", type=Path, required=True)
    parser.add_argument("--model-dir", type=Path, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spans", type=Path, help="where a traced run writes its spans")
    args = parser.parse_args()

    threads = prepare.nproc()
    tally = Tally()
    w = WORKLOADS[args.workload](args.inputs, args.model_dir, threads, tally)
    plain = Tracer()  # root spans only: setup, op and checks
    w.load_inputs(plain)
    for _ in range(1 if args.trace else SETUP_REPEATS):
        with plain.span("setup"):
            w.setup(plain)
        for _ in range(SETUP_REFERENCE_RUNS):
            with plain.span("setup.reference"):
                w.reference.once()
    measure(plain, w, args.seconds)
    if args.trace:
        traced = Tracer()
        instrument(traced)
        try:
            w.load_inputs(traced)
            with traced.span("setup"):
                w.setup(traced)
            measure(traced, w, args.seconds)
            w.checks(traced)
        finally:
            traced.restore()
        metrics = per_layer(w, traced, plain)
        if args.spans:
            traced.dump(args.spans)
        headline = {}
    else:
        w.checks(plain)
        metrics = end_to_end(w, plain)
        headline = {
            **w.headline(plain),
            "unscaled_setup_s": (setup_seconds(plain), "s"),
            "setup_reference_ms": (reference_ms(plain, "setup.reference"), "ms"),
        }
    record = {
        "model_sha256": sha256(w.model_data),
        "predictions_sha256": sha256(np.ascontiguousarray(w.predictions, dtype=np.float64).tobytes()),
        "operations": len(op_seconds(plain)),
        "threads": threads,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "failures": tally.failures[:20],
    }
    print(
        json.dumps(
            {
                "attempted": tally.attempted,
                "failed": len(tally.failures),
                "metrics": metrics,
                "headline": headline,
                "record": record,
            }
        )
    )


if __name__ == "__main__":
    main()
