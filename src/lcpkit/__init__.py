"""lcpkit: lexical complexity prediction toolkit.

Predicts a [0, 1] complexity score for a target word in context using
statistical, character n-gram and psycholinguistic lexicon features fed to a
from-scratch random forest regressor, with evaluation and feature-ablation
reporting built in.
"""

__version__ = "0.1.0"

from .corpus import BandLabel, DatasetSplit, Instance, band_of, parse_dataset, split_train_dev
from .errors import DataError, LcpkitError, ResourceError
from .evaluation import (
    AblationRow,
    MetricsReport,
    evaluate,
    mae,
    mse,
    pearson,
    render_report,
    spearman,
)
from .features import (
    FEATURE_FAMILIES,
    POS_TAGSET,
    PRESETS,
    FeatureConfig,
    FeatureSchema,
    LexiconTagger,
    char_ngrams,
    extract_matrix,
    fit_schema,
    pos_tag,
    syllable_count,
)
from .forest import (
    ForestConfig,
    RandomForest,
    fit,
    load_model,
    predict_batch,
    save_model,
)
from .lexicons import (
    CoverageStat,
    Lexicon,
    LexiconRegistry,
    LexiconSpec,
    coverage,
    load_lexicon,
    lookup,
    merge_average,
    merge_binary_union,
)
from .pipeline import TrainResult, fit_and_evaluate, predict_scores, run_ablation
