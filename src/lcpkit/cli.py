"""Command line surface: train, predict, evaluate, ablate, coverage.

A run is described by an INI-style config file (sections below) which every
flag can override; flags win. All output files are written byte-stably so a
repeated run with identical inputs, flags and seed reproduces them exactly.
A run manifest (config snapshot, the hash of each input's bytes as the run
read them, seed) is written next to every model and report.

Config grammar::

    [data]                      [forest]
    train = path                n_trees = 120
    dev_fraction = 0.2          max_features_per_split = 750
    eval_on = dev               min_samples_leaf = 1
                                min_samples_split = 2
    [features]                  max_depth = none
    preset = lcp_rit            bootstrap = true
    enabled = length,syllables  seed = 42       # default: [run] seed
    trigram_min_count = 5
    trigram_max_vocab = 700     [run]
    frequency_source = lexicon  seed = 42
                                threads = 1

    [pos]
    tag_lexicon = path

    [lexicon:prevalence]
    path = prevalence.tsv
    kind = continuous           # or binary
    term_column = 0
    value_column = 1
    lowercase = true
    skip_rows = 0

Exit codes: 0 success, 1 usage, 2 data error, 3 resource error.
"""

from __future__ import annotations

import argparse
import configparser
import hashlib
import io
import json
import logging
import math
import sys
from dataclasses import dataclass, field, fields, replace
from operator import attrgetter
from pathlib import Path

from . import __version__
from .corpus import band_of, parse_dataset, split_train_dev
from .errors import DataError, LcpkitError, ResourceError, decode_utf8
from .evaluation import AblationRow, MetricsReport, evaluate, format_metric, render_report
from .features import PRESETS, FeatureConfig, FeatureSchema, LexiconTagger, check_resources
from .forest import ForestConfig, load_model, save_model
from .lexicons import LexiconRegistry, LexiconSpec, coverage, load_lexicon
from .pipeline import EVAL_SIDES, ablation_features, fit_and_evaluate, predict_scores, run_ablation


class UsageError(LcpkitError):
    """Bad flag/config combination; maps to exit code 1."""


# ---------------------------------------------------------------------------
# Run configuration


@dataclass
class RunConfig:
    """The settings a run uses, as the config file and the flags resolve them,
    and the inputs it read."""

    train_path: str | None = None
    dev_fraction: float = 0.2
    eval_on: str = "dev"
    seed: int = 0
    threads: int = 1
    #: the preset that ``[features] preset`` or ``--preset`` names, unless
    #: ``--features`` is given; ``_apply_common_flags`` sets
    #: ``features.enabled`` from it, and the manifest records its name
    preset: str | None = None
    features: FeatureConfig = field(default_factory=lambda: FeatureConfig.preset("baseline"))
    forest: ForestConfig = field(default_factory=ForestConfig)
    lexicons: dict[str, LexiconSpec] = field(default_factory=dict)
    pos_lexicon: str | None = None
    #: a record, not a setting: the hash of each input file the run read,
    #: by path as given, of exactly the bytes it read (``_read_input``)
    inputs: dict[str, str] = field(default_factory=dict)


def _parse_bool(raw: str, where: str) -> bool:
    if raw.lower() in ("true", "1", "yes", "on"):
        return True
    if raw.lower() in ("false", "0", "no", "off"):
        return False
    raise DataError(f"config {where}: expected a boolean, got {raw!r}")


def _parse_int(raw: str, where: str) -> int:
    try:
        return int(raw)
    except ValueError:
        raise DataError(f"config {where}: expected an integer, got {raw!r}") from None


def _parse_float(raw: str, where: str) -> float:
    try:
        return float(raw)
    except ValueError:
        raise DataError(f"config {where}: expected a number, got {raw!r}") from None


def _parse_str(raw: str, where: str) -> str:
    return raw


#: Parser of a config value, by the annotation of the field it sets.
_PARSERS = {
    "str": _parse_str,
    "int": _parse_int,
    "bool": _parse_bool,
    "int | None": lambda raw, where: None if raw.lower() == "none" else _parse_int(raw, where),
    # FeatureConfig checks the names, as it does those of a preset
    "frozenset[str]": lambda raw, where: frozenset(f.strip() for f in raw.split(",") if f.strip()),
}

#: Every ``[section] key`` of the run config: the RunConfig attribute it sets
#: (``features.NAME`` and ``forest.NAME`` are field NAME of the feature and
#: forest configs) and its parser.
_KEYS = {
    ("data", "train"): ("train_path", _parse_str),
    ("data", "dev_fraction"): ("dev_fraction", _parse_float),
    ("data", "eval_on"): ("eval_on", _parse_str),
    ("features", "preset"): ("preset", _parse_str),
    **{("features", f.name): (f"features.{f.name}", _PARSERS[f.type]) for f in fields(FeatureConfig)},
    **{("forest", f.name): (f"forest.{f.name}", _PARSERS[f.type]) for f in fields(ForestConfig)},
    ("run", "seed"): ("seed", _parse_int),
    ("run", "threads"): ("threads", _parse_int),
    ("pos", "tag_lexicon"): ("pos_lexicon", _parse_str),
}

#: The ``[section] key`` that each common flag sets; a flag given wins over the file.
_FLAGS = {
    "train": ("data", "train"), "dev_fraction": ("data", "dev_fraction"), "eval_on": ("data", "eval_on"),
    "preset": ("features", "preset"), "features": ("features", "enabled"),
    "seed": ("run", "seed"), "threads": ("run", "threads"),
}


def _set(cfg: RunConfig, section: str, key: str, raw: str) -> None:
    """Parse ``raw`` as the value of ``[section] key`` and set it in ``cfg``."""
    target, parse = _KEYS[section, key]
    value = parse(raw, f"[{section}] {key}")
    owner, _, name = target.rpartition(".")
    if owner:  # a field of cfg.features or cfg.forest, which checks the value
        value = replace(getattr(cfg, owner), **{name: value})
    setattr(cfg, owner or name, value)


def load_run_config(path: str | None) -> RunConfig:
    cfg = RunConfig()
    if path is None:
        return cfg
    text = decode_utf8(_read_file(path, "config file"), f"config file {path}:")
    # no section header can be named "\n", so [DEFAULT] is refused as an unknown section
    parser = configparser.ConfigParser(interpolation=None, default_section="\n")
    try:
        # universal newlines, as reading the file in text mode gives
        parser.read_file(io.StringIO(text, newline=None), source=path)
    except configparser.Error as exc:
        raise DataError(f"config file {path}: {exc}") from None

    for section in parser.sections():
        keys = dict(parser.items(section))
        try:
            if section.startswith("lexicon:"):
                name = section.split(":", 1)[1].strip()
                if not name:
                    raise DataError(f"config section [{section}]: empty lexicon name")
                if name in cfg.lexicons:  # configparser refuses only the same section text twice
                    raise DataError(f"config section [{section}]: lexicon {name!r} is already configured")
                spec = {f.name: f for f in fields(LexiconSpec) if f.name != "name"}
                unknown = keys.keys() - spec.keys()
                if unknown:
                    raise DataError(f"config section [{section}]: unknown keys {sorted(unknown)}")
                if "path" not in keys:
                    raise DataError(f"config section [{section}]: missing required key 'path'")
                cfg.lexicons[name] = LexiconSpec(
                    name=name,
                    **{k: _PARSERS[spec[k].type](raw, f"[{section}] {k}") for k, raw in keys.items()},
                )
                continue
            if section not in {s for s, _ in _KEYS}:
                raise DataError(f"config file {path}: unknown section [{section}]")
            unknown = [key for key in keys if (section, key) not in _KEYS]
            if unknown:
                raise DataError(f"config section [{section}]: unknown keys {sorted(unknown)}")
            for key, raw in keys.items():
                _set(cfg, section, key, raw)
        except ValueError as exc:  # a value LexiconSpec, ForestConfig or FeatureConfig refuses
            raise DataError(f"config section [{section}]: {exc}") from None
    if not parser.has_option("forest", "seed"):
        cfg.forest = replace(cfg.forest, seed=cfg.seed)
    return cfg


def _apply_common_flags(cfg: RunConfig, args: argparse.Namespace) -> RunConfig:
    """``cfg`` with the flags given applied, checked before any input is read."""
    for flag, (section, key) in _FLAGS.items():
        if getattr(args, flag, None) is not None:
            _set(cfg, section, key, str(getattr(args, flag)))
    if args.seed is not None:
        cfg.forest = replace(cfg.forest, seed=cfg.seed)
    if getattr(args, "features", None) is not None:
        cfg.preset = None
    if cfg.threads < 0:
        raise UsageError(f"threads must be >= 0 (0 = auto), got {cfg.threads}")
    if not 0.0 < cfg.dev_fraction < 1.0:
        raise DataError(f"[data] dev_fraction must be in (0, 1), got {cfg.dev_fraction}")
    if cfg.eval_on not in EVAL_SIDES:
        raise DataError(f"[data] eval_on must be one of {EVAL_SIDES}, got {cfg.eval_on!r}")
    if cfg.preset is not None:  # refused here, not in the file, as --preset may replace it
        cfg.features = replace(cfg.features, enabled=FeatureConfig.preset(cfg.preset).enabled)
    return cfg


# ---------------------------------------------------------------------------
# Resource loading


def _read_file(path: str, what: str) -> bytes:
    try:
        return Path(path).read_bytes()
    except OSError as exc:
        raise ResourceError(f"cannot read {what} {path}: {exc}") from None


def _read_input(cfg: RunConfig, path: str, what: str) -> bytes:
    """The bytes of input ``path``, whose hash ``cfg.inputs`` records."""
    data = _read_file(path, what)
    cfg.inputs[path] = "sha256:" + hashlib.sha256(data).hexdigest()
    return data


def _write_file(path: Path, data: bytes, what: str) -> None:
    try:
        path.write_bytes(data)
    except OSError as exc:
        raise ResourceError(f"cannot write {what}: {exc}") from None


def load_resources(cfg: RunConfig, feature_config: FeatureConfig) -> tuple[LexiconRegistry, LexiconTagger | None]:
    """The lexicons and the POS tagger that the enabled families read, each
    checked to be configured and to back its family before any file is read."""
    reads = check_resources(feature_config, cfg.lexicons, cfg.pos_lexicon is not None)
    registry = LexiconRegistry()
    for name in (name for _, names in reads for name in names):
        spec = cfg.lexicons[name]
        registry.add(load_lexicon(spec, _read_input(cfg, spec.path, f"lexicon {name!r}")))
    tagger = None
    if any(block.tagged for block, _ in reads):
        tagger = LexiconTagger.load(_read_input(cfg, cfg.pos_lexicon, "pos lexicon"))
    return registry, tagger


# ---------------------------------------------------------------------------
# Manifest


#: The config sections whose settings each command uses; its manifest
#: records those only, and the top-level seed only when it reads ``[run]``.
_READS = {
    "train": ("data", "features", "forest", "run", "pos", "lexicon"),
    "ablate": ("data", "features", "forest", "run", "pos", "lexicon"),
    "predict": ("features", "forest", "pos", "lexicon"),
    "evaluate": (),
}


def _config_snapshot(cfg: RunConfig, sections: tuple[str, ...]) -> dict:
    """Every key of ``sections`` as the run resolved it, read back from the
    attribute it sets. The thread count is left out, because it never
    changes an output byte."""
    snap = {}
    for (section, key), (target, _) in _KEYS.items():
        if section in sections and (section, key) != ("run", "threads"):
            value = attrgetter(target)(cfg)
            snap[f"{section}.{key}"] = ",".join(sorted(value)) if isinstance(value, frozenset) else value
    if "lexicon" in sections:
        for name, spec in sorted(cfg.lexicons.items()):
            snap[f"lexicon.{name}"] = spec.path
    return snap


def write_manifest(out_path: Path, command: str, cfg: RunConfig, outputs: list[str]) -> None:
    doc = {
        "version": 1,
        "command": command,
        "config": _config_snapshot(cfg, _READS[command]),
        "inputs": cfg.inputs,
        "outputs": outputs,
    }
    if "run" in _READS[command]:
        doc["seed"] = cfg.seed
    manifest_path = out_path.with_name(out_path.name + ".manifest.json")
    text = json.dumps(doc, sort_keys=True, ensure_ascii=False, indent=1) + "\n"
    _write_file(manifest_path, text.encode("utf-8"), "manifest")


# ---------------------------------------------------------------------------
# Commands


def _say(args, message: str) -> None:
    if not args.quiet:
        print(message)


def _metrics_line(report: MetricsReport) -> str:
    return (
        f"n={report.n}"
        f" r={format_metric(report.pearson_r)}"
        f" rho={format_metric(report.spearman_rho)}"
        f" mae={format_metric(report.mae)}"
        f" mse={format_metric(report.mse)}"
    )


def _require(value, flag: str):
    if value is None:
        raise UsageError(f"missing required input: give {flag} or set it in the config file")
    return value


def _load_training(cfg: RunConfig, train_path: str, feature_config: FeatureConfig):
    """The train/dev split of the training dataset, and the lexicons and the
    POS tagger that ``feature_config`` reads, loaded first."""
    registry, tagger = load_resources(cfg, feature_config)
    instances = parse_dataset(_read_input(cfg, train_path, "training dataset"), has_gold=True)
    return split_train_dev(instances, cfg.dev_fraction, cfg.seed), registry, tagger


def cmd_train(args, cfg: RunConfig) -> int:
    train_path = _require(cfg.train_path, "--train")
    split, registry, tagger = _load_training(cfg, train_path, cfg.features)
    result = fit_and_evaluate(
        split,
        registry,
        cfg.features,
        cfg.forest,
        tagger,
        eval_on=cfg.eval_on,
        n_threads=cfg.threads,
    )
    model_path = Path(args.model)
    model_bytes = io.BytesIO()
    save_model(result.model, model_bytes)
    _write_file(model_path, model_bytes.getvalue(), "model output")
    schema_path = model_path.with_name(model_path.name + ".schema.json")
    _write_file(schema_path, result.schema.to_json().encode("utf-8"), "model output")
    write_manifest(model_path, "train", cfg, [model_path.name, schema_path.name])
    _say(args, f"model written to {model_path}")
    if result.report is not None:
        _say(args, f"{cfg.eval_on} metrics: {_metrics_line(result.report)}")
    return 0


def cmd_predict(args, cfg: RunConfig) -> int:
    model = load_model(_read_input(cfg, args.model, "model file"))
    schema_path = args.schema or args.model + ".schema.json"
    schema = FeatureSchema.from_json(_read_input(cfg, schema_path, "schema file"))
    # The model's own feature and forest settings replace the run config's,
    # so the manifest records what ran.
    cfg.preset = None
    cfg.features = schema.config
    cfg.forest = model.config
    registry, tagger = load_resources(cfg, schema.config)
    instances = parse_dataset(_read_input(cfg, args.input, "input dataset"), has_gold=False)
    scores = predict_scores(instances, schema, model, registry, tagger)
    lines = ["id\tprediction\tband"]
    for inst, score in zip(instances, scores):
        lines.append(f"{inst.id}\t{score:.3f}\t{band_of(float(score)).value}")
    out_path = Path(args.output)
    _write_file(out_path, ("\n".join(lines) + "\n").encode("utf-8"), "predictions")
    write_manifest(out_path, "predict", cfg, [out_path.name])
    _say(args, f"{len(instances)} predictions written to {out_path}")
    return 0


def _parse_predictions(data: bytes, path: str) -> dict[str, float]:
    lines = decode_utf8(data, f"predictions file {path}:").splitlines()
    if not lines:
        raise DataError(f"predictions file {path}: empty")
    header = lines[0].split("\t")
    if header[:2] != ["id", "prediction"]:
        raise DataError(f"predictions file {path}: expected header starting 'id\\tprediction'")
    out: dict[str, float] = {}
    for line_no, line in enumerate(lines[1:], start=2):
        parts = line.split("\t")
        if len(parts) < 2:
            raise DataError(f"predictions file {path} line {line_no}: expected at least 2 columns")
        if parts[0] in out:
            raise DataError(f"predictions file {path} line {line_no}: duplicate id {parts[0]!r}")
        try:
            out[parts[0]] = float(parts[1])
        except ValueError:
            raise DataError(
                f"predictions file {path} line {line_no}: non-numeric prediction {parts[1]!r}"
            ) from None
        if not math.isfinite(out[parts[0]]):
            raise DataError(f"predictions file {path} line {line_no}: non-finite prediction {parts[1]!r}")
    return out


def cmd_evaluate(args, cfg: RunConfig) -> int:
    predictions = _parse_predictions(_read_input(cfg, args.pred, "predictions file"), args.pred)
    gold_instances = parse_dataset(_read_input(cfg, args.gold, "gold dataset"), has_gold=True)
    labeled = [inst for inst in gold_instances if inst.gold is not None]
    if not labeled:
        raise DataError(f"gold dataset {args.gold} contains no labeled instances")
    missing = [inst.id for inst in labeled if inst.id not in predictions]
    if missing:
        shown = ", ".join(missing[:10]) + ("..." if len(missing) > 10 else "")
        raise DataError(f"{len(missing)} gold id(s) missing from predictions: {shown}")
    pred = [predictions[inst.id] for inst in labeled]
    gold = [inst.gold for inst in labeled]
    report = evaluate(pred, gold)
    _say(args, _metrics_line(report))
    if args.report:
        text = render_report([AblationRow("evaluation", report)], args.format)
        report_path = Path(args.report)
        _write_file(report_path, text.encode("utf-8"), "report")
        write_manifest(report_path, "evaluate", cfg, [report_path.name])
    return 0


def cmd_ablate(args, cfg: RunConfig) -> int:
    train_path = _require(cfg.train_path, "--train")
    candidates = [c.strip() for c in args.candidates.split(",") if c.strip()]
    split, registry, tagger = _load_training(cfg, train_path, ablation_features(cfg.features, candidates))
    rows = run_ablation(
        split,
        registry,
        cfg.features,
        candidates,
        cfg.forest,
        tagger,
        eval_on=cfg.eval_on,
        n_threads=cfg.threads,
    )
    text = render_report(rows, args.format)
    report_path = Path(args.report)
    _write_file(report_path, text.encode("utf-8"), "report")
    write_manifest(report_path, "ablate", cfg, [report_path.name])
    for row in rows:
        _say(args, f"{row.label}: {_metrics_line(row.report)}")
    return 0


def cmd_coverage(args, cfg: RunConfig) -> int:
    train_path = _require(cfg.train_path, "--train")
    if args.lexicon not in cfg.lexicons:
        raise ResourceError(f"lexicon {args.lexicon!r} is not configured (add [lexicon:{args.lexicon}])")
    spec = cfg.lexicons[args.lexicon]
    lex = load_lexicon(spec, _read_file(spec.path, f"lexicon {args.lexicon!r}"))
    instances = parse_dataset(_read_file(train_path, "training dataset"), has_gold=True)
    vocab = sorted({lex.normalize(inst.token.strip()) for inst in instances})
    stat = coverage(lex, vocab)
    print(
        f"coverage lexicon={stat.lexicon_name} vocab={stat.vocab_size}"
        f" covered={stat.covered} fraction={stat.fraction:.4f}"
    )
    return 0


# ---------------------------------------------------------------------------
# Parser


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # usage problems exit 1, not argparse's default 2
        self.print_usage(sys.stderr)
        self.exit(1, f"error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    # Help strings state their defaults by hand: most flags default to None
    # so that only a flag given on the command line overrides the config.
    parser = _Parser(prog="lcp", description="Lexical complexity prediction toolkit")
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    common = _Parser(add_help=False)
    common.add_argument("--config", metavar="PATH", help="run config file (INI format)")
    common.add_argument("--seed", type=int, default=None, help="seed for split and forest (default: 0)")
    common.add_argument(
        "--threads", type=int, default=None, help="trees grown in parallel (worker processes), 0 = auto (default: 1)"
    )
    common.add_argument("--quiet", action="store_true", help="suppress informational output (default: off)")

    # flags of the commands that fit models; ablate reads the features as its baseline
    fitting = _Parser(add_help=False)
    fitting.add_argument("--train", metavar="PATH", help="labeled training dataset TSV")
    fitting.add_argument("--preset", choices=sorted(PRESETS), default=None, help="feature preset (default: baseline)")
    fitting.add_argument("--features", metavar="LIST", default=None, help="comma-separated feature families")
    fitting.add_argument("--dev-fraction", type=float, default=None, help="held-out fraction (default: 0.2)")
    fitting.add_argument("--eval-on", choices=EVAL_SIDES, default=None, help="evaluation side (default: dev)")

    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    def command(name, func, help, parents=()):
        p = sub.add_parser(name, parents=[common, *parents], help=help)
        p.set_defaults(func=func)
        return p

    p = command("train", cmd_train, "fit a model and report dev metrics", [fitting])
    p.add_argument("--model", metavar="PATH", required=True, help="output model file")

    p = command("predict", cmd_predict, "score an unlabeled dataset with a trained model")
    p.add_argument("--model", metavar="PATH", required=True, help="trained model file")
    p.add_argument("--schema", metavar="PATH", default=None, help="schema sidecar (default: MODEL.schema.json)")
    p.add_argument("--input", metavar="PATH", required=True, help="unlabeled dataset TSV")
    p.add_argument("--output", metavar="PATH", required=True, help="output predictions TSV")

    p = command("evaluate", cmd_evaluate, "score a predictions file against gold labels")
    p.add_argument("--pred", metavar="PATH", required=True, help="predictions TSV (id, prediction)")
    p.add_argument("--gold", metavar="PATH", required=True, help="labeled dataset TSV")
    p.add_argument("--report", metavar="PATH", default=None, help="optional rendered report file")
    p.add_argument("--format", choices=["markdown", "csv"], default="markdown", help="report format (default: markdown)")

    p = command("ablate", cmd_ablate, "baseline-plus-one-feature ablation report", [fitting])
    p.add_argument("--candidates", metavar="LIST", default="", help="comma-separated candidate families")
    p.add_argument("--report", metavar="PATH", required=True, help="output report file")
    p.add_argument("--format", choices=["markdown", "csv"], default="markdown", help="report format (default: markdown)")

    p = command("coverage", cmd_coverage, "lexicon coverage of distinct training targets")
    p.add_argument("--train", metavar="PATH", help="labeled training dataset TSV")
    p.add_argument("--lexicon", metavar="NAME", required=True, help="configured lexicon name")
    return parser


#: Exit code of each failure ``main`` reports; the first type that matches wins.
_EXIT_CODES = {UsageError: 1, DataError: 2, ResourceError: 3, ValueError: 2, OSError: 3}


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    logging.basicConfig(
        level=logging.ERROR if args.quiet else logging.WARNING,
        format="%(levelname)s %(name)s: %(message)s",
    )
    try:
        return args.func(args, _apply_common_flags(load_run_config(args.config), args))
    except tuple(_EXIT_CODES) as exc:
        # one line, as configparser's messages span several
        print("error:", " ".join(map(str.strip, str(exc).splitlines())), file=sys.stderr)
        return next(code for kind, code in _EXIT_CODES.items() if isinstance(exc, kind))


if __name__ == "__main__":
    sys.exit(main())
