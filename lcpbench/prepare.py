"""Build the paper-configuration model that the predict workloads load.

The model is fitted once per source tree: 120 trees with
``max_features_per_split = 750`` on a corpus sampled from the fixed world,
through the same calls as ``lcp train``. Lowering the split sampling would
make the trees smaller and traversal cheaper than the paper's, so it is kept.

    python3 lcpbench/prepare.py OUT_DIR

writes the six lexicons, ``model.lcpmodel``, its schema sidecar and
``meta.json`` into OUT_DIR. This fit is preparation and is never timed.
"""

from __future__ import annotations

import json
import os
import sys
import time
from contextlib import nullcontext
from pathlib import Path

import gen
from lcpkit import FeatureConfig, ForestConfig, fit_and_evaluate, parse_dataset, split_train_dev
from lcpkit.forest import save_model
from lcpkit.lexicons import LexiconRegistry, LexiconSpec, load_lexicon

PREP_SEED = 0
RUN_SEED = 42
DEV_FRACTION = 0.2
PRESET = "lcp_rit"
PAPER_TREES = 120
PAPER_MAX_FEATURES = 750


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def load_registry(directory: Path, tracer=None) -> LexiconRegistry:
    """The six lexicons in ``directory``; with a tracer, one span per load."""
    registry = LexiconRegistry()
    for spec in gen.lexicon_specs(directory):
        with tracer.span("lexicons.load") if tracer else nullcontext():
            data = Path(spec["path"]).read_bytes()
            registry.add(load_lexicon(LexiconSpec(**spec), data))
    return registry


def main() -> None:
    out = Path(sys.argv[1])
    out.mkdir(parents=True, exist_ok=True)
    world = gen.make_world(gen.WORLD_SEED)
    gen.write_lexicons(world, gen.WORLD_SEED, out)
    rows = gen.sample_rows(world, gen.CORPUS_ROWS, PREP_SEED, prefix="p")
    instances = parse_dataset(gen.dataset_tsv(rows, with_gold=True), has_gold=True)
    split = split_train_dev(instances, DEV_FRACTION, RUN_SEED)
    start = time.perf_counter()
    result = fit_and_evaluate(
        split,
        load_registry(out),
        FeatureConfig.preset(PRESET),
        ForestConfig(n_trees=PAPER_TREES, max_features_per_split=PAPER_MAX_FEATURES, seed=RUN_SEED),
        n_threads=nproc(),
    )
    elapsed = time.perf_counter() - start
    with open(out / "model.lcpmodel", "wb") as sink:
        save_model(result.model, sink)
    (out / "model.lcpmodel.schema.json").write_text(result.schema.to_json(), encoding="utf-8")
    report = result.report
    meta = {
        "fit_and_evaluate_s": elapsed,
        "threads": nproc(),
        "train_rows": len(split.train),
        "dev": {"r": report.pearson_r, "rho": report.spearman_rho, "mae": report.mae, "mse": report.mse},
    }
    (out / "meta.json").write_text(json.dumps(meta, indent=1) + "\n", encoding="utf-8")


if __name__ == "__main__":
    main()
