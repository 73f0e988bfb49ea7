"""Feature schema fitting and per-instance vector extraction.

A feature family is a group of columns that the config switches on or off
as one (``length``, ``char_trigrams``, ``aoa``, ``pos``, ...). ``BLOCKS`` at
the end of this module is the single description of every family: the
order of its columns in the schema, the registry lexicons it reads, what it
fits on the training rows, how it fills its columns and whether that reads
the sentence. ``FEATURE_FAMILIES``, ``resolve_family_lexicons``,
``lexicon_names``, ``fit_schema``, ``distinct_inputs`` and ``extract_matrix``
are all read off that table. Extraction is total: missing data is imputed,
never raised.
"""

from __future__ import annotations

import json
import math
from collections import Counter
from dataclasses import dataclass, field, fields, replace
from functools import cached_property
from typing import IO, Callable, Collection, Iterator, Mapping, Protocol, Sequence

import numpy as np

from .corpus import Instance
from .errors import DataError, ResourceError, decode_utf8
from .lexicons import BINARY, Lexicon, LexiconRegistry, lookup, merge_average, merge_binary_union

VOWELS = frozenset("aeiouy")

#: 12-tag universal part-of-speech set used by the one-hot block.
POS_TAGSET = ("ADJ", "ADP", "ADV", "CONJ", "DET", "NOUN", "NUM", "PRON", "PRT", "VERB", "X", ".")

_BASELINE = frozenset({"length", "syllables", "frequency", "char_trigrams"})
_MODEL1 = _BASELINE | {"aoa", "prevalence", "concreteness_brysbaert"}

PRESETS: dict[str, frozenset[str]] = {
    "baseline": _BASELINE,
    "model1": frozenset(_MODEL1),
    "model2": frozenset(_MODEL1 | {"familiarity_mrc", "prior_complexity"}),
    "lcp_rit": frozenset(_MODEL1 | {"arousal"}),
}

FREQUENCY_SOURCES = ("lexicon", "corpus_internal")


def syllable_count(word: str) -> int:
    """Heuristic syllable count, always at least 1.

    Counts maximal vowel runs (a, e, i, o, u, y) in the lowercased word, then
    drops one for a trailing silent "e" unless the word ends in "le" after a
    consonant.
    """
    if not word:
        raise ValueError("syllable_count requires a non-empty word")
    w = word.lower()
    runs = 0
    in_run = False
    for ch in w:
        if ch in VOWELS:
            if not in_run:
                runs += 1
            in_run = True
        else:
            in_run = False
    silent_le = len(w) >= 3 and w.endswith("le") and w[-3] not in VOWELS
    if w.endswith("e") and runs > 1 and not silent_le:
        runs -= 1
    return max(runs, 1)


def char_ngrams(word: str, n: int) -> list[str]:
    """Padded character n-grams of the lowercased word, duplicates retained."""
    if n not in (2, 3):
        raise ValueError(f"n must be 2 or 3, got {n}")
    if not word:
        raise ValueError("char_ngrams requires a non-empty word")
    s = "^" + word.lower() + "$"
    return [s[i : i + n] for i in range(len(s) - n + 1)]


class Tagger(Protocol):
    def __call__(self, token: str, sentence: str) -> str: ...


class LexiconTagger:
    """Most-frequent-tag lookup tagger; unknown tokens get "X"."""

    def __init__(self, tags: Mapping[str, str]):
        self._tags = dict(tags)

    def __call__(self, token: str, sentence: str) -> str:
        return self._tags.get(token.strip().lower(), "X")

    @classmethod
    def load(cls, source: IO[bytes] | bytes) -> "LexiconTagger":
        """Load a ``term<TAB>tag`` TSV; repeated terms keep their most frequent
        tag (ties to the lexicographically smaller tag)."""
        text = decode_utf8(source, "pos lexicon:")
        counts: dict[str, Counter] = {}
        for line_no, line in enumerate(text.splitlines(), start=1):
            parts = line.split("\t")
            if len(parts) < 2:
                raise DataError(f"pos lexicon line {line_no}: expected 2 columns")
            term = parts[0].strip().lower()
            tag = parts[1].strip()
            if not term:
                raise DataError(f"pos lexicon line {line_no}: empty term")
            if tag not in POS_TAGSET:
                raise DataError(f"pos lexicon line {line_no}: unknown tag {tag!r}")
            counts.setdefault(term, Counter())[tag] += 1
        tags = {t: min(c.items(), key=lambda kv: (-kv[1], kv[0]))[0] for t, c in counts.items()}
        return cls(tags)


def pos_tag(token: str, sentence: str, tagger: Tagger, tagset: Sequence[str] = POS_TAGSET) -> str:
    """Tag a token with the given tagger, coercing anything off-tagset to "X"."""
    tag = tagger(token, sentence)
    return tag if tag in tagset else "X"


@dataclass(frozen=True)
class FeatureConfig:
    enabled: frozenset[str]
    trigram_min_count: int = 5
    trigram_max_vocab: int = 700
    frequency_source: str = "lexicon"

    def __post_init__(self):
        object.__setattr__(self, "enabled", frozenset(self.enabled))
        if not self.enabled:
            raise ValueError("at least one feature family must be enabled")
        unknown = self.enabled - set(FEATURE_FAMILIES)
        if unknown:
            raise ValueError(f"unknown feature families: {sorted(unknown)}")
        if self.trigram_min_count < 1:
            raise ValueError("trigram_min_count must be >= 1")
        if self.trigram_max_vocab < 1:
            raise ValueError("trigram_max_vocab must be >= 1")
        if self.frequency_source not in FREQUENCY_SOURCES:
            raise ValueError(f"frequency_source must be one of {FREQUENCY_SOURCES}")

    @classmethod
    def preset(cls, name: str, **kwargs) -> "FeatureConfig":
        if name not in PRESETS:
            raise ValueError(f"unknown preset {name!r}; choose from {sorted(PRESETS)}")
        return cls(enabled=PRESETS[name], **kwargs)


@dataclass(frozen=True)
class FeatureSchema:
    """Fitted, ordered feature description.

    Everything extraction needs besides the lexicon registry itself lives
    here: imputation means, n-gram vocabularies with their training counts,
    the POS tagset and (for the corpus-internal source) frequency counts.
    ``columns`` holds the column names, in ``BLOCKS`` order.
    """

    config: FeatureConfig
    impute: Mapping[str, float] = field(default_factory=dict)
    bigram_vocab: tuple[str, ...] = ()
    trigram_vocab: tuple[str, ...] = ()
    bigram_counts: Mapping[str, int] = field(default_factory=dict)
    trigram_counts: Mapping[str, int] = field(default_factory=dict)
    pos_tagset: tuple[str, ...] = POS_TAGSET
    internal_frequency: Mapping[str, int] | None = None
    columns: tuple[str, ...] = field(init=False)
    _layout: tuple[tuple[Block, slice], ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        columns: list[str] = []
        layout = []
        for block in _enabled_blocks(self.config):
            names = block.columns(self)
            layout.append((block, slice(len(columns), len(columns) + len(names))))
            columns.extend(names)
        object.__setattr__(self, "columns", tuple(columns))
        object.__setattr__(self, "_layout", tuple(layout))

    @cached_property
    def _vocab_index(self) -> dict[str, dict[str, int]]:
        """Position of each gram in its vocabulary, by ``bigram``/``trigram``."""
        vocabs = {"bigram": self.bigram_vocab, "trigram": self.trigram_vocab}
        return {name: {g: j for j, g in enumerate(vocab)} for name, vocab in vocabs.items()}

    def to_json(self) -> str:
        doc = {f.name: getattr(self, f.name) for f in fields(self) if f.init}
        doc["config"] = {f.name: getattr(self.config, f.name) for f in fields(FeatureConfig)}
        doc["config"]["enabled"] = sorted(self.config.enabled)
        doc["version"] = 1
        return json.dumps(doc, sort_keys=True, ensure_ascii=False, indent=1) + "\n"

    @classmethod
    def from_json(cls, text: str | bytes) -> "FeatureSchema":
        if not isinstance(text, str):
            text = decode_utf8(text, "schema file:")
        try:
            doc = json.loads(text)
        except json.JSONDecodeError as exc:
            raise DataError(f"schema file: invalid JSON: {exc}") from None
        if not isinstance(doc, dict) or doc.get("version") != 1:
            raise DataError("schema file: missing or unsupported version")
        try:
            fitted = {
                f.name: _FROM_JSON[f.type](doc[f.name])
                for f in fields(cls)
                if f.init and f.name != "config"
            }
            cfg = FeatureConfig(**{f.name: doc["config"][f.name] for f in fields(FeatureConfig)})
            for f in fields(cfg):  # JSON true, 2.5 and NaN load as bool and float
                if f.type == "int" and type(getattr(cfg, f.name)) is not int:
                    raise TypeError(f"config {f.name} must be an integer, got {getattr(cfg, f.name)!r}")
            return cls(config=cfg, **fitted)
        except (KeyError, TypeError, ValueError, OverflowError) as exc:
            raise DataError(f"schema file: bad content: {exc}") from None


def _strings(doc) -> tuple[str, ...]:
    if not (isinstance(doc, list) and all(isinstance(s, str) for s in doc)):
        raise TypeError("expected a list of strings")
    return tuple(doc)


def _values(doc, convert: Callable) -> dict:
    if not isinstance(doc, dict):
        raise TypeError("expected an object")
    return {k: convert(v) for k, v in doc.items()}


def _counts(doc) -> dict[str, int]:
    counts = _values(doc, lambda c: c)
    # JSON true and 2.5 load as bool and float, which int() would truncate
    if not all(type(c) is int and 0 <= c < 2**63 for c in counts.values()):
        raise ValueError("counts must be JSON integers from 0 to 2**63 - 1")
    return counts


#: How a fitted schema field is read back from JSON, by its annotation.
_FROM_JSON = {
    "tuple[str, ...]": _strings,
    "Mapping[str, float]": lambda doc: _values(doc, float),
    "Mapping[str, int]": _counts,
    "Mapping[str, int] | None": lambda doc: None if doc is None else _counts(doc),
}


def _key(inst: Instance) -> str:
    """The stripped target token, the lexicon lookup key."""
    return inst.token.strip()


@dataclass
class _Rows:
    """Instances with what the blocks read for them: each one's ``_key``,
    each family's lexicon view and the tagger."""

    instances: Sequence[Instance]
    views: Mapping[str, Lexicon]
    tagger: Tagger | None
    keys: list[str] = field(init=False)

    def __post_init__(self):
        self.keys = [_key(inst) for inst in self.instances]

    def lookup(self, family: str) -> list[float | None]:
        """The family's lexicon value for every key, None where it has none."""
        return [lookup(self.views[family], key) for key in self.keys]


@dataclass(frozen=True)
class Block:
    """A run of adjacent schema columns owned by one feature family.

    ``columns`` names the block's columns from a fitted schema, and raises
    ValueError when the schema lacks a fitted value the block reads. ``lexicons``
    gives the registry names the family reads under a config (a trailing
    ``*`` matches every name with that prefix; the missing-resource error
    lists them), and ``merge`` turns the lexicons found into the family's
    one view. ``fit`` adds the block's fitted state to the schema fields
    being built; ``fill`` writes the block's columns for every row into its
    slice of the feature matrix. ``fill`` reads ``rows.keys`` and nothing
    else of an instance unless ``reads_sentence`` is set; then it may also
    read the instance's unstripped token and its sentence.
    """

    family: str
    columns: Callable[[FeatureSchema], tuple[str, ...]]
    fill: Callable[[_Rows, FeatureSchema, np.ndarray], None]
    fit: Callable[[_Rows, FeatureConfig, dict], None] | None = None
    lexicons: Callable[[FeatureConfig], tuple[str, ...]] = lambda config: ()
    merge: Callable[[list[Lexicon]], Lexicon] = lambda found: found[0]
    reads_sentence: bool = False


def _per_key(value: Callable[[str], int]) -> Callable[[_Rows, FeatureSchema, np.ndarray], None]:
    """Fill for a one-column block computed from the target token alone."""

    def fill(rows: _Rows, schema: FeatureSchema, out: np.ndarray) -> None:
        out[:, 0] = [value(key) for key in rows.keys]

    return fill


def _fill_pair(out: np.ndarray, found: list, missing: float) -> None:
    """A value column (``missing`` where nothing was found) and its 0/1
    presence indicator."""
    out[:, 0] = [missing if v is None else v for v in found]
    out[:, 1] = [v is not None for v in found]


def _fill_frequency(rows: _Rows, schema: FeatureSchema, out: np.ndarray) -> None:
    if schema.config.frequency_source == "corpus_internal":
        counts = schema.internal_frequency or {}
        raw = [counts.get(key.lower()) for key in rows.keys]
    else:
        raw = rows.lookup("frequency")
    _fill_pair(out, [None if v is None else math.log1p(max(float(v), 0.0)) for v in raw], 0.0)


def _fit_frequency(rows: _Rows, config: FeatureConfig, state: dict) -> None:
    if config.frequency_source == "corpus_internal":
        counter: Counter = Counter()
        for inst in rows.instances:
            counter.update(inst.sentence.lower().split())
        state["internal_frequency"] = dict(counter)


def _lexicon_block(family: str, names: tuple[str, ...] | None = None, merge=Block.merge) -> Block:
    """A lexicon lookup and its coverage indicator; uncovered targets get the
    mean value over the covered training targets."""

    def fit(rows: _Rows, config: FeatureConfig, state: dict) -> None:
        values = [v for v in rows.lookup(family) if v is not None]
        if not values:
            raise ResourceError(
                f"lexicon for feature family '{family}' covers none of the training targets"
            )
        state.setdefault("impute", {})[family] = float(np.mean(values))

    def fill(rows: _Rows, schema: FeatureSchema, out: np.ndarray) -> None:
        _fill_pair(out, rows.lookup(family), schema.impute[family])

    def columns(schema: FeatureSchema) -> tuple[str, ...]:
        if not math.isfinite(schema.impute.get(family, math.nan)):
            raise ValueError(f"feature family {family!r} has no finite imputation mean")
        return (family, f"{family}_present")

    return Block(family, columns, fill, fit, lambda config: names or (family,), merge)


def _average(found: list[Lexicon]) -> Lexicon:
    return found[0] if len(found) == 1 else merge_average(*found)


def _union(found: list[Lexicon]) -> Lexicon:
    bad = [lex.name for lex in found if lex.kind != BINARY]
    if bad:
        raise ResourceError(f"feature family 'prior_complexity': lexicons {bad} are not binary")
    return found[0] if len(found) == 1 else merge_binary_union(found)


_NO_TAGGER = "feature family 'pos' is enabled but no tagger is configured"


def _require_tagger(rows: _Rows) -> Tagger:
    if rows.tagger is None:
        raise ResourceError(_NO_TAGGER)
    return rows.tagger


def _fill_pos(rows: _Rows, schema: FeatureSchema, out: np.ndarray) -> None:
    tagger = _require_tagger(rows)
    tags = [pos_tag(inst.token, inst.sentence, tagger, schema.pos_tagset) for inst in rows.instances]
    out[:] = np.array(tags, dtype=str)[:, None] == np.array(schema.pos_tagset, dtype=str)


def _ngram_blocks(n: int, name: str, prefix: str) -> tuple[Block, Block]:
    """The aggregate block (mean and min of log(1 + training count) over the
    target's n-grams) and the count block (one column per vocabulary gram)
    of one character n-gram family.

    The vocabulary keeps grams with training count >= trigram_min_count,
    most frequent first (ties lexicographic), capped at trigram_max_vocab.
    """
    family = f"char_{name}s"

    def fit(rows: _Rows, config: FeatureConfig, state: dict) -> None:
        counter: Counter = Counter()
        for key in rows.keys:
            counter.update(char_ngrams(key, n))
        kept = sorted(
            ((g, c) for g, c in counter.items() if c >= config.trigram_min_count),
            key=lambda gc: (-gc[1], gc[0]),
        )[: config.trigram_max_vocab]
        state[f"{name}_vocab"] = tuple(g for g, _ in kept)
        state[f"{name}_counts"] = dict(kept)

    def fill_logs(rows: _Rows, schema: FeatureSchema, out: np.ndarray) -> None:
        counts = getattr(schema, f"{name}_counts")
        logs = [[math.log1p(counts.get(g, 0)) for g in char_ngrams(key, n)] for key in rows.keys]
        out[:, 0] = [sum(row) / len(row) for row in logs]
        out[:, 1] = [min(row) for row in logs]

    def fill_counts(rows: _Rows, schema: FeatureSchema, out: np.ndarray) -> None:
        index = schema._vocab_index[name]
        hits = [
            (i, j)
            for i, key in enumerate(rows.keys)
            for g in char_ngrams(key, n)
            if (j := index.get(g)) is not None
        ]
        if hits:
            np.add.at(out, tuple(np.array(hits).T), 1.0)

    return (
        Block(family, lambda schema: (f"{name}_log_mean", f"{name}_log_min"), fill_logs, fit=fit),
        Block(family, lambda s: tuple(prefix + g for g in getattr(s, f"{name}_vocab")), fill_counts),
    )


_BIGRAM_LOGS, _BIGRAM_COUNTS = _ngram_blocks(2, "bigram", "bi:")
_TRIGRAM_LOGS, _TRIGRAM_COUNTS = _ngram_blocks(3, "trigram", "tri:")

#: Every column block in schema column order; the schema holds the blocks of
#: the enabled families. A new family is added here, and only here.
BLOCKS: tuple[Block, ...] = (
    Block("length", lambda schema: ("length",), _per_key(len)),
    Block("syllables", lambda schema: ("syllables",), _per_key(syllable_count)),
    Block(
        "frequency",
        lambda schema: ("frequency", "frequency_present"),
        _fill_frequency,
        fit=_fit_frequency,
        lexicons=lambda config: ("frequency",) if config.frequency_source == "lexicon" else (),
    ),
    _lexicon_block("aoa", ("aoa_1981", "aoa_2017"), _average),
    _lexicon_block("prevalence"),
    _lexicon_block("concreteness_brysbaert"),
    _lexicon_block("concreteness_mrc"),
    _lexicon_block("familiarity_mrc"),
    _lexicon_block("arousal"),
    _lexicon_block("prior_complexity", ("prior_complexity*",), _union),
    Block(
        "pos",
        lambda schema: tuple(f"pos={t}" for t in schema.pos_tagset),
        _fill_pos,
        fit=lambda rows, config, state: _require_tagger(rows),
        reads_sentence=True,
    ),
    _BIGRAM_LOGS,
    _TRIGRAM_LOGS,
    _BIGRAM_COUNTS,
    _TRIGRAM_COUNTS,
)

FEATURE_FAMILIES: tuple[str, ...] = tuple(dict.fromkeys(block.family for block in BLOCKS))


def _enabled_blocks(config: FeatureConfig) -> Iterator[Block]:
    return (block for block in BLOCKS if block.family in config.enabled)


def _lexicon_reads(config: FeatureConfig, available: Collection[str]) -> Iterator[tuple[Block, list[str]]]:
    """Each enabled block that reads lexicons under ``config``, with the
    names out of ``available`` it reads (possibly none)."""
    for block in _enabled_blocks(config):
        patterns = block.lexicons(config)
        if patterns:
            names: list[str] = []
            for pattern in patterns:
                if pattern.endswith("*"):
                    names.extend(sorted(n for n in available if n.startswith(pattern[:-1])))
                elif pattern in available:
                    names.append(pattern)
            yield block, names


def lexicon_names(config: FeatureConfig, available: Collection[str]) -> list[str]:
    """The names out of ``available`` that the enabled families read."""
    return [name for _, names in _lexicon_reads(config, available) for name in names]


def _no_lexicon(block: Block, config: FeatureConfig) -> ResourceError:
    expected = " and/or ".join(block.lexicons(config))
    return ResourceError(
        f"feature family '{block.family}' has no backing lexicon (expected registry entry: {expected})"
    )


def check_resources(config: FeatureConfig, available: Collection[str], has_tagger: bool) -> None:
    """Raise the ResourceError that extraction under ``config`` would raise
    for a missing resource, from the names alone: a lexicon-backed family
    with none of its lexicons among ``available``, or ``pos`` with no
    tagger. A caller runs it before it reads any input."""
    for block, names in _lexicon_reads(config, available):
        if not names:
            raise _no_lexicon(block, config)
    if "pos" in config.enabled and not has_tagger:
        raise ResourceError(_NO_TAGGER)


def resolve_family_lexicons(registry: LexiconRegistry, config: FeatureConfig) -> dict[str, Lexicon]:
    """Map each enabled lexicon-backed family to its backing lexicon.

    ``aoa`` averages the two age-of-acquisition registry entries when both are
    present; ``prior_complexity`` unions every binary ``prior_complexity*``
    entry; ``frequency`` reads the ``frequency`` entry when its source is
    ``lexicon``. A missing backing resource raises ResourceError naming the
    family (see ``check_resources``). Merged views are built once per
    registry (``LexiconRegistry.view``).
    """
    views: dict[str, Lexicon] = {}
    for block, names in _lexicon_reads(config, registry.names()):
        if not names:
            raise _no_lexicon(block, config)
        views[block.family] = registry.view(tuple(names), block.merge)
    return views


def fit_schema(
    train: Sequence[Instance],
    registry: LexiconRegistry,
    config: FeatureConfig,
    tagger: Tagger | None = None,
) -> FeatureSchema:
    """Fit the feature schema on training instances.

    Each enabled block fits its own state (see ``BLOCKS``): imputation means
    over the covered training targets of each lexicon (a lexicon covering
    none of them fails fast), n-gram vocabularies, and corpus-internal
    frequency counts.
    """
    if not train:
        raise ValueError("cannot fit a schema on empty training data")
    rows = _Rows(train, resolve_family_lexicons(registry, config), tagger)
    state: dict = {}
    for block in _enabled_blocks(config):
        if block.fit:
            block.fit(rows, config, state)
    return FeatureSchema(config=config, **state)


def distinct_inputs(instances: Sequence[Instance], config: FeatureConfig) -> tuple[list[Instance], np.ndarray]:
    """The first instance of each distinct extraction input, and for each
    instance the position of its own among them, so that
    ``extract_matrix(instances)`` has the bytes of
    ``extract_matrix(representatives)[where]``.

    Instances are the same input when their ``_key`` is equal, or, when an
    enabled block reads the sentence, their token and sentence are.
    """
    whole = any(block.reads_sentence for block in _enabled_blocks(config))
    first: dict = {}  # key -> (position, representative)
    where = np.empty(len(instances), dtype=np.intp)
    for i, inst in enumerate(instances):
        key = (inst.token, inst.sentence) if whole else _key(inst)
        where[i] = first.setdefault(key, (len(first), inst))[0]
    return [inst for _, inst in first.values()], where


def extract_matrix(
    instances: Sequence[Instance],
    schema: FeatureSchema,
    registry: LexiconRegistry,
    tagger: Tagger | None = None,
) -> np.ndarray:
    """Feature vectors, shape (len(instances), len(schema.columns)); one
    instance is extracted as a one-element sequence.

    Total over valid instances: missing lexicon values are imputed with their
    paired indicator set to 0, unknown n-grams count as 0, unknown POS maps
    to "X". The result never contains non-finite values.
    """
    rows = _Rows(instances, resolve_family_lexicons(registry, schema.config), tagger)
    out = np.zeros((len(instances), len(schema.columns)), dtype=np.float64)
    for block, cols in schema._layout:
        block.fill(rows, schema, out[:, cols])
    return out


def with_families(config: FeatureConfig, *families: str) -> FeatureConfig:
    """Copy of the config with extra families enabled."""
    return replace(config, enabled=frozenset(config.enabled | set(families)))
