import contextlib
import hashlib
import io
import json
import math
import os
import random
import re
from dataclasses import fields

import pytest
from hypothesis import given, settings, strategies as st

from lcpkit import cli, forest
from lcpkit.cli import _KEYS, _parse_predictions, load_run_config, main
from lcpkit.corpus import split_train_dev
from lcpkit.errors import DataError, LcpkitError
from lcpkit.features import PRESETS
from lcpkit.forest import load_model
from lcpkit.lexicons import LexiconSpec

from conftest import mutated, mutated_json, random_word, synthetic_complexity, tsv_inputs


def build_workspace(tmp_path, n=60, seed=0, lexicons=("frequency", "prevalence", "aoa_1981",
                                                      "aoa_2017", "arousal", "concreteness_brysbaert")):
    """Write a toy labeled corpus plus lexicon TSVs and a config file."""
    rng = random.Random(seed)
    words = set()
    while len(words) < n:
        words.add(random_word(rng))
    words = sorted(words)
    max_log = math.log1p(9999)
    freq = {w: rng.randint(1, 9999) for w in words}

    rows = []
    for k, w in enumerate(words):
        gold = synthetic_complexity(w, freq[w], rng.gauss(0, 0.02), max_log)
        rows.append(f"t{k:04d}\tbible\tthe {w} was seen\t{w}\t{gold!r}")
    train = tmp_path / "train.tsv"
    train.write_text("id\tcorpus\tsentence\ttoken\tcomplexity\n" + "\n".join(rows) + "\n")

    test_rows = [f"x{k:04d}\tbiomed\tanother {w} appears\t{w}\t" for k, w in enumerate(words[:15])]
    test = tmp_path / "test.tsv"
    test.write_text("id\tcorpus\tsentence\ttoken\tcomplexity\n" + "\n".join(test_rows) + "\n")

    covered = words[: int(0.8 * n)]
    lex_sections = []
    for name in lexicons:
        path = tmp_path / f"{name}.tsv"
        if name == "frequency":
            path.write_text("".join(f"{w}\t{freq[w]}\n" for w in words))
        elif name.startswith("prior_complexity"):
            path.write_text("".join(f"{w}\t{rng.randint(0, 1)}\n" for w in covered))
        else:
            path.write_text("".join(f"{w}\t{rng.uniform(1, 7):.3f}\n" for w in covered))
        kind = "binary" if name.startswith("prior_complexity") else "continuous"
        lex_sections.append(f"[lexicon:{name}]\npath = {path}\nkind = {kind}\n")

    pos = tmp_path / "pos.tsv"
    pos.write_text("".join(f"{w}\t{'NOUN' if i % 2 else 'VERB'}\n" for i, w in enumerate(covered)))

    config = tmp_path / "run.ini"
    config.write_text(
        f"[data]\ntrain = {train}\ndev_fraction = 0.2\n\n"
        "[forest]\nn_trees = 6\n\n"
        "[run]\nseed = 5\n\n"
        f"[pos]\ntag_lexicon = {pos}\n\n" + "\n".join(lex_sections)
    )
    return {"tmp": tmp_path, "train": train, "test": test, "config": config}


@pytest.fixture
def workspace(tmp_path):
    return build_workspace(tmp_path)


def run(*argv) -> int:
    return main([str(a) for a in argv])


def train_seeds(monkeypatch, *argv) -> tuple[int, list[str]]:
    """Train with ``argv`` (``--model`` last): the model's forest seed and
    the ids of the dev side the run split off."""
    dev_ids = []

    def spy(instances, dev_fraction, seed):
        split = split_train_dev(instances, dev_fraction, seed)
        dev_ids.extend(inst.id for inst in split.dev)
        return split

    monkeypatch.setattr(cli, "split_train_dev", spy)
    assert run("train", *argv, "--quiet") == 0
    return load_model(argv[-1].read_bytes()).config.seed, dev_ids


class TestTrain:
    def test_train_writes_model_schema_manifest(self, workspace, capsys):
        model = workspace["tmp"] / "out.lcpmodel"
        code = run("train", "--config", workspace["config"], "--model", model, "--preset", "baseline")
        assert code == 0
        text = model.read_text()
        assert text.startswith("LCPMODEL 1\n")
        assert sum(1 for line in text.splitlines() if line.startswith("[tree ")) == 6
        assert (workspace["tmp"] / "out.lcpmodel.schema.json").exists()
        manifest = json.loads((workspace["tmp"] / "out.lcpmodel.manifest.json").read_text())
        assert manifest["command"] == "train"
        assert manifest["seed"] == 5
        assert sorted(k for k in manifest["config"] if not k.startswith("lexicon.")) == [
            "data.dev_fraction", "data.eval_on", "data.train",
            "features.enabled", "features.frequency_source", "features.preset",
            "features.trigram_max_vocab", "features.trigram_min_count",
            "forest.bootstrap", "forest.max_depth", "forest.max_features_per_split",
            "forest.min_samples_leaf", "forest.min_samples_split", "forest.n_trees", "forest.seed",
            "pos.tag_lexicon", "run.seed",
        ]
        assert manifest["config"]["forest.seed"] == 5
        assert manifest["config"]["features.preset"] == "baseline"
        out = capsys.readouterr().out
        assert "dev metrics" in out

    def test_train_deterministic_bytes(self, workspace):
        a = workspace["tmp"] / "a.lcpmodel"
        b = workspace["tmp"] / "b.lcpmodel"
        assert run("train", "--config", workspace["config"], "--model", a, "--quiet") == 0
        assert run("train", "--config", workspace["config"], "--model", b, "--quiet") == 0
        assert a.read_bytes() == b.read_bytes()
        assert (workspace["tmp"] / "a.lcpmodel.schema.json").read_bytes() == (
            workspace["tmp"] / "b.lcpmodel.schema.json"
        ).read_bytes()

    def test_seed_flag_overrides_config(self, workspace):
        model = workspace["tmp"] / "s.lcpmodel"
        assert run("train", "--config", workspace["config"], "--model", model, "--seed", "9", "--quiet") == 0
        assert "seed=9" in model.read_text()

    @pytest.mark.parametrize("place", ["before", "after"])
    def test_forest_seed_defaults_to_run_seed(self, workspace, monkeypatch, place):
        text = workspace["config"].read_text()
        assert "[forest]\nn_trees = 6\n" in text and text.index("[forest]") < text.index("[run]")
        if place == "before":
            text = text.replace("[forest]\nn_trees = 6\n", "[forest]\nn_trees = 6\nseed = 7\n")
        else:
            text = text.replace("[forest]\nn_trees = 6\n", "") + "\n[forest]\nn_trees = 6\nseed = 7\n"
        tmp = workspace["tmp"]
        cfg = tmp / "seeds.ini"
        cfg.write_text(text)
        # the workspace config sets only [run] seed = 5
        run_seed, run_dev = train_seeds(monkeypatch, "--config", workspace["config"], "--model", tmp / "run.lcpmodel")
        assert run_seed == 5
        seed, dev = train_seeds(monkeypatch, "--config", cfg, "--model", tmp / "forest.lcpmodel")
        assert (seed, dev) == (7, run_dev)
        seed, dev = train_seeds(monkeypatch, "--config", cfg, "--seed", "9", "--model", tmp / "flag.lcpmodel")
        nine = tmp / "nine.ini"
        nine.write_text(workspace["config"].read_text().replace("[run]\nseed = 5", "[run]\nseed = 9"))
        assert (seed, dev) == train_seeds(monkeypatch, "--config", nine, "--model", tmp / "nine.lcpmodel")
        assert seed == 9 and dev != run_dev

    @pytest.mark.parametrize("features,flags,enabled", [
        ("preset = lcp_rit\nenabled = length,pos\n", [], PRESETS["lcp_rit"]),
        ("preset = lcp_rit\n", ["--features", "length,syllables"], {"length", "syllables"}),
        ("enabled = length,syllables\n", ["--preset", "lcp_rit"], PRESETS["lcp_rit"]),
    ])
    def test_feature_settings_resolve(self, workspace, features, flags, enabled):
        cfg = workspace["tmp"] / "features.ini"
        cfg.write_text(workspace["config"].read_text() + "\n[features]\n" + features)
        model = workspace["tmp"] / "f.lcpmodel"
        assert run("train", "--config", cfg, "--model", model, *flags, "--quiet") == 0
        schema = json.loads((workspace["tmp"] / "f.lcpmodel.schema.json").read_text())
        assert set(schema["config"]["enabled"]) == set(enabled)

    @pytest.mark.parametrize("data,flags", [
        ("eval_on = nope", []),
        ("dev_fraction = 1.5", []),
        ("dev_fraction = nan", []),
        ("", ["--dev-fraction", "0"]),
        ("", ["--dev-fraction", "1.5"]),
    ], ids=["eval_on", "dev_fraction", "dev_fraction_nan", "flag_0", "flag_1.5"])
    def test_bad_data_value_is_refused_before_any_input(self, workspace, data, flags, capsys):
        cfg = workspace["tmp"] / "data.ini"
        cfg.write_text(f"[data]\n{data}\n")
        # the dataset does not exist: the [data] values are checked before any input is read
        code = run("train", "--config", cfg, "--train", workspace["tmp"] / "missing.tsv",
                   "--model", workspace["tmp"] / "m.lcpmodel", *flags)
        assert code == 2
        key = "eval_on" if "eval_on" in data else "dev_fraction"
        assert f"[data] {key}" in capsys.readouterr().err

    def test_data_test_key_is_unknown(self, tmp_path):
        cfg = tmp_path / "test.ini"
        cfg.write_text("[data]\ntest = test.tsv\n")
        with pytest.raises(DataError, match=re.escape("config section [data]: unknown keys ['test']")):
            load_run_config(str(cfg))

    def test_missing_lexicon_fails_fast_naming_family(self, tmp_path, capsys):
        ws = build_workspace(tmp_path, lexicons=("frequency", "aoa_1981", "concreteness_brysbaert", "arousal"))
        model = tmp_path / "m.lcpmodel"
        code = run("train", "--config", ws["config"], "--model", model, "--preset", "lcp_rit")
        assert code == 3
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert "prevalence" in err

    def test_lcp_rit_preset_trains(self, workspace):
        model = workspace["tmp"] / "rit.lcpmodel"
        assert run("train", "--config", workspace["config"], "--model", model,
                   "--preset", "lcp_rit", "--quiet") == 0
        schema = json.loads((workspace["tmp"] / "rit.lcpmodel.schema.json").read_text())
        assert set(schema["config"]["enabled"]) == {
            "length", "syllables", "frequency", "char_trigrams",
            "aoa", "prevalence", "concreteness_brysbaert", "arousal",
        }

    def test_pos_without_tagger_is_resource_error(self, workspace, capsys):
        no_pos = workspace["tmp"] / "no_pos.ini"
        no_pos.write_text(workspace["config"].read_text().replace("[pos]\ntag_lexicon", "[pos]\n#"))
        code = run("train", "--config", no_pos, "--model", workspace["tmp"] / "m.lcpmodel",
                   "--features", "length,pos")
        assert code == 3
        assert "tagger" in capsys.readouterr().err

    @pytest.mark.parametrize("where", ["flag", "config"])
    def test_negative_threads_is_usage_error(self, workspace, where, capsys):
        cfg = workspace["tmp"] / "threads.ini"
        cfg.write_text("[run]\nthreads = -1\n" if where == "config" else "")
        flags = ["--threads", "-1"] if where == "flag" else []
        # the dataset does not exist: the thread count is checked before any input is read
        code = run("train", "--config", cfg, "--train", workspace["tmp"] / "missing.tsv",
                   "--model", workspace["tmp"] / "m.lcpmodel", *flags)
        assert code == 1
        assert "threads" in capsys.readouterr().err

    def test_train_without_dataset_is_usage_error(self, tmp_path, capsys):
        code = run("train", "--model", tmp_path / "m.lcpmodel")
        assert code == 1
        assert "error:" in capsys.readouterr().err

    def test_bad_gold_value_is_data_error(self, workspace):
        bad = workspace["tmp"] / "bad.tsv"
        bad.write_text("id\tcorpus\tsentence\ttoken\tcomplexity\nb1\tbible\ta cat\tcat\t1.7\n")
        code = run("train", "--config", workspace["config"], "--train", bad,
                   "--model", workspace["tmp"] / "m.lcpmodel")
        assert code == 2

    @pytest.mark.parametrize("text,section", [
        ("[lexicon:x]\npath = x.tsv\nkind = weird\n", "[lexicon:x]"),
        ("[forest]\nn_trees = 0\n", "[forest]"),
        ("[features]\ntrigram_min_count = 0\n", "[features]"),
        ("[features]\nfrequency_source = nope\n", "[features]"),
        ("[features]\nenabled = bogus\n", "[features]"),
        ("[features]\nenabled = ,\n", "[features]"),
        ("[lexicon: ]\npath = x.tsv\n", "[lexicon: ]"),
    ])
    def test_config_value_error_is_data_error_naming_section(self, tmp_path, text, section):
        cfg = tmp_path / "bad.ini"
        cfg.write_text(text)
        with pytest.raises(DataError, match=re.escape(f"config section {section}")):
            load_run_config(str(cfg))

    def test_unknown_config_section_is_data_error(self, tmp_path):
        cfg = tmp_path / "typo.ini"
        cfg.write_text("[fores]\nn_trees = 3\n")
        with pytest.raises(DataError, match=re.escape(f"config file {cfg}: unknown section [fores]")):
            load_run_config(str(cfg))

    @pytest.mark.parametrize("raw,value", [("true", True), ("TRUE", True), ("Off", False)])
    def test_boolean_config_values(self, tmp_path, raw, value):
        cfg = tmp_path / "bool.ini"
        cfg.write_text(f"[forest]\nbootstrap = {raw}\n\n[lexicon:x]\npath = x.tsv\nlowercase = {raw}\n")
        loaded = load_run_config(str(cfg))
        assert (loaded.forest.bootstrap, loaded.lexicons["x"].lowercase) == (value, value)

    @pytest.mark.parametrize("families,message", [
        ("bogus", "unknown feature families: ['bogus']"),
        (" , ", "at least one feature family must be enabled"),
    ])
    def test_bad_feature_list_flag_is_refused_before_any_input(self, workspace, families, message, capsys):
        # the dataset does not exist: the feature list is checked before any input is read
        code = run("train", "--config", workspace["config"], "--train", workspace["tmp"] / "missing.tsv",
                   "--model", workspace["tmp"] / "m.lcpmodel", "--features", families)
        assert code == 2
        assert capsys.readouterr().err == f"error: {message}\n"

    def test_config_preset_is_checked_where_it_is_used(self, tmp_path):
        # a --preset flag may replace a bad preset from the config file
        cfg = tmp_path / "preset.ini"
        cfg.write_text("[features]\npreset = nope\n")
        assert load_run_config(str(cfg)).preset == "nope"

    def test_non_finite_lexicon_value_names_file_and_line(self, workspace, capsys):
        freq = workspace["tmp"] / "frequency.tsv"
        n_lines = len(freq.read_text().splitlines())
        freq.write_text(freq.read_text() + "zzz\tnan\n")
        code = run("train", "--config", workspace["config"], "--model", workspace["tmp"] / "m.lcpmodel",
                   "--features", "length,frequency")
        assert code == 2
        assert f"lexicon 'frequency' line {n_lines + 1}: non-finite value" in capsys.readouterr().err

    def test_unknown_config_key_is_data_error(self, workspace, capsys):
        cfg = workspace["tmp"] / "typo.ini"
        cfg.write_text("[forest]\nn_tres = 10\n")
        code = run("train", "--config", cfg, "--train", workspace["train"],
                   "--model", workspace["tmp"] / "m.lcpmodel")
        assert code == 2
        assert "n_tres" in capsys.readouterr().err


class TestPredict:
    @pytest.fixture
    def trained(self, workspace):
        model = workspace["tmp"] / "out.lcpmodel"
        assert run("train", "--config", workspace["config"], "--model", model, "--quiet") == 0
        return model

    def test_predict_writes_rows(self, workspace, trained):
        out = workspace["tmp"] / "pred.tsv"
        code = run("predict", "--config", workspace["config"], "--model", trained,
                   "--input", workspace["test"], "--output", out, "--quiet")
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "id\tprediction\tband"
        assert len(lines) == 16
        for line in lines[1:]:
            ident, pred, band = line.split("\t")
            assert 0.0 <= float(pred) <= 1.0
            assert len(pred.split(".")[1]) == 3
            assert band in {"very_easy", "easy", "neutral", "difficult", "very_difficult"}

    def test_predict_empty_input(self, workspace, trained):
        empty = workspace["tmp"] / "empty.tsv"
        empty.write_text("id\tcorpus\tsentence\ttoken\n")
        out = workspace["tmp"] / "pred_empty.tsv"
        assert run("predict", "--config", workspace["config"], "--model", trained,
                   "--input", empty, "--output", out, "--quiet") == 0
        assert out.read_text() == "id\tprediction\tband\n"

    def test_fingerprint_mismatch_rejected(self, workspace, trained, capsys):
        other = workspace["tmp"] / "other.lcpmodel"
        assert run("train", "--config", workspace["config"], "--model", other,
                   "--features", "length,syllables", "--quiet") == 0
        out = workspace["tmp"] / "pred.tsv"
        code = run("predict", "--config", workspace["config"], "--model", trained,
                   "--schema", str(other) + ".schema.json",
                   "--input", workspace["test"], "--output", out)
        assert code == 2
        assert "schema does not match the model's features" in capsys.readouterr().err

    def test_manifest_records_the_model_features_and_inputs(self, workspace):
        model = workspace["tmp"] / "pos.lcpmodel"
        families = "length,frequency,aoa,pos,char_trigrams"
        assert run("train", "--config", workspace["config"], "--model", model,
                   "--features", families, "--quiet") == 0
        out = workspace["tmp"] / "pred.tsv"
        assert run("predict", "--config", workspace["config"], "--model", model,
                   "--input", workspace["test"], "--output", out, "--quiet") == 0
        manifest = json.loads((workspace["tmp"] / "pred.tsv.manifest.json").read_text())
        assert manifest["config"]["features.enabled"] == "aoa,char_trigrams,frequency,length,pos"
        assert manifest["config"]["features.preset"] is None
        tmp = workspace["tmp"]
        assert sorted(manifest["inputs"]) == sorted(str(p) for p in [
            model, f"{model}.schema.json", workspace["test"],
            tmp / "frequency.tsv", tmp / "aoa_1981.tsv", tmp / "aoa_2017.tsv", tmp / "pos.tsv",
        ])
        assert all(h.startswith("sha256:") for h in manifest["inputs"].values())

    def test_manifest_records_the_model_forest_settings(self, workspace, trained):
        other = workspace["tmp"] / "other.ini"
        other.write_text(workspace["config"].read_text().replace(
            "[forest]\nn_trees = 6\n", "[forest]\nn_trees = 3\nmin_samples_leaf = 4\nseed = 11\n"))
        out = workspace["tmp"] / "pred.tsv"
        assert run("predict", "--config", other, "--model", trained,
                   "--input", workspace["test"], "--output", out, "--quiet") == 0
        config = json.loads((workspace["tmp"] / "pred.tsv.manifest.json").read_text())["config"]
        assert (config["forest.n_trees"], config["forest.min_samples_leaf"], config["forest.seed"]) == (6, 1, 5)
        model = load_model(trained.read_bytes())
        assert {k: v for k, v in config.items() if k.startswith("forest.")} == {
            f"forest.{f.name}": getattr(model.config, f.name) for f in fields(model.config)
        }

    def test_manifest_leaves_out_the_settings_predict_does_not_use(self, workspace, trained):
        out = workspace["tmp"] / "pred.tsv"
        assert run("predict", "--config", workspace["config"], "--model", trained, "--seed", 9,
                   "--input", workspace["test"], "--output", out, "--quiet") == 0
        manifest = json.loads((workspace["tmp"] / "pred.tsv.manifest.json").read_text())
        assert "seed" not in manifest
        assert sorted({k.split(".")[0] for k in manifest["config"]}) == ["features", "forest", "lexicon", "pos"]
        assert manifest["config"]["forest.seed"] == 5

    @pytest.mark.skipif(not os.path.isdir("/dev/fd"), reason="needs /dev/fd")
    def test_manifest_hashes_the_bytes_read_from_a_pipe(self, workspace, trained):
        data = workspace["test"].read_bytes()
        read_end, write_end = os.pipe()
        try:
            assert os.write(write_end, data) == len(data)
            os.close(write_end)
            path = f"/dev/fd/{read_end}"
            out = workspace["tmp"] / "pred.tsv"
            assert run("predict", "--config", workspace["config"], "--model", trained,
                       "--input", path, "--output", out, "--quiet") == 0
        finally:
            os.close(read_end)
        assert len(out.read_text().splitlines()) == 16
        manifest = json.loads((workspace["tmp"] / "pred.tsv.manifest.json").read_text())
        # the pipe is empty once read: a second read would hash no bytes
        assert manifest["inputs"][path] == "sha256:" + hashlib.sha256(data).hexdigest()

    def test_pos_model_without_tagger_is_resource_error(self, workspace, capsys):
        model = workspace["tmp"] / "pos.lcpmodel"
        assert run("train", "--config", workspace["config"], "--model", model,
                   "--features", "length,pos", "--quiet") == 0
        no_pos = workspace["tmp"] / "no_pos.ini"
        no_pos.write_text(workspace["config"].read_text().replace("[pos]\ntag_lexicon", "[pos]\n#"))
        code = run("predict", "--config", no_pos, "--model", model,
                   "--input", workspace["test"], "--output", workspace["tmp"] / "p.tsv")
        assert code == 3
        assert "tagger" in capsys.readouterr().err

    def test_bad_schema_sidecar_is_data_error(self, workspace, trained, capsys):
        sidecar = workspace["tmp"] / "bad.schema.json"
        doc = json.loads((workspace["tmp"] / "out.lcpmodel.schema.json").read_text())
        doc["impute"] = []
        sidecar.write_text(json.dumps(doc))
        code = run("predict", "--config", workspace["config"], "--model", trained, "--schema", sidecar,
                   "--input", workspace["test"], "--output", workspace["tmp"] / "p.tsv")
        assert code == 2
        assert capsys.readouterr().err.startswith("error: schema file: bad content")

    def test_missing_model_is_resource_error(self, workspace):
        code = run("predict", "--config", workspace["config"],
                   "--model", workspace["tmp"] / "nope.lcpmodel",
                   "--input", workspace["test"], "--output", workspace["tmp"] / "p.tsv")
        assert code == 3


class TestResourcesBeforeInputs:
    """A feature family without its lexicon or tagger is refused from the
    config's names alone, before any dataset is read."""

    @pytest.mark.parametrize("command", ["train", "ablate"])
    @pytest.mark.parametrize("features, message", [
        ("length,frequency", "feature family 'frequency' has no backing lexicon (expected registry entry: frequency)"),
        ("length,pos", "feature family 'pos' is enabled but no tagger is configured"),
    ])
    def test_training_dataset_not_read(self, tmp_path, command, features, message):
        config = tmp_path / "bare.ini"
        config.write_text("[forest]\nn_trees = 2\n")
        not_a_dataset = tmp_path / "notes.txt"
        not_a_dataset.write_text("not a dataset\n")
        out = ["--model", tmp_path / "m.lcpmodel"] if command == "train" else ["--report", tmp_path / "r.md"]
        code, err = quiet_main(command, "--config", config, "--train", not_a_dataset, "--features", features, *out)
        assert (code, err) == (3, f"error: {message}\n")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["bare.ini", "notes.txt"]

    def test_predict_input_not_read(self, workspace):
        model = workspace["tmp"] / "out.lcpmodel"
        assert run("train", "--config", workspace["config"], "--model", model, "--quiet") == 0
        bare = workspace["tmp"] / "bare.ini"
        bare.write_text("[run]\nseed = 5\n")
        not_a_dataset = workspace["tmp"] / "notes.txt"
        not_a_dataset.write_text("not a dataset\n")
        out = workspace["tmp"] / "pred.tsv"
        code, err = quiet_main("predict", "--config", bare, "--model", model, "--input", not_a_dataset, "--output", out)
        assert code == 3
        assert err.startswith("error: feature family 'frequency' has no backing lexicon")
        assert not out.exists()


class TestDeadWorker:
    def test_exit_code_3_and_one_line(self, workspace, monkeypatch):
        monkeypatch.setattr(forest, "_grow_tree", lambda *args: os._exit(9))
        model = workspace["tmp"] / "out.lcpmodel"
        code, err = quiet_main("train", "--config", workspace["config"], "--model", model, "--threads", 2)
        assert code == 3
        assert err.startswith("error: a worker process died") and err.count("\n") == 1
        assert not model.exists()


class TestEvaluate:
    def test_self_evaluation_is_zero_error(self, workspace, capsys):
        pred = workspace["tmp"] / "pred.tsv"
        lines = ["id\tprediction"]
        for line in workspace["train"].read_text().splitlines()[1:]:
            ident, _, _, _, gold = line.split("\t")
            lines.append(f"{ident}\t{gold}")
        pred.write_text("\n".join(lines) + "\n")
        report = workspace["tmp"] / "report.md"
        code = run("evaluate", "--pred", pred, "--gold", workspace["train"], "--report", report)
        assert code == 0
        out = capsys.readouterr().out
        assert "mae=0.000" in out
        assert report.read_text().startswith("| Label | R |")
        assert (workspace["tmp"] / "report.md.manifest.json").exists()

    def test_manifest_records_no_run_settings(self, workspace):
        pred = workspace["tmp"] / "pred.tsv"
        gold_lines = workspace["train"].read_text().splitlines()[1:]
        pred.write_text(
            "id\tprediction\n" + "\n".join(f"{l.split(chr(9))[0]}\t0.5" for l in gold_lines) + "\n"
        )
        report = workspace["tmp"] / "report.md"
        assert run("evaluate", "--config", workspace["config"], "--pred", pred, "--gold", workspace["train"],
                   "--report", report, "--quiet") == 0
        manifest = json.loads((workspace["tmp"] / "report.md.manifest.json").read_text())
        assert manifest["config"] == {}
        assert "seed" not in manifest
        assert sorted(manifest["inputs"]) == sorted([str(pred), str(workspace["train"])])

    def test_manifest_hashes_the_predictions_read_not_the_report_written(self, workspace):
        pred = workspace["tmp"] / "pred.tsv"
        gold_lines = workspace["train"].read_text().splitlines()[1:]
        pred.write_text(
            "id\tprediction\n" + "\n".join(f"{l.split(chr(9))[0]}\t0.5" for l in gold_lines) + "\n"
        )
        data = pred.read_bytes()
        assert run("evaluate", "--pred", pred, "--gold", workspace["train"], "--report", pred, "--quiet") == 0
        assert pred.read_text().startswith("| Label | R |")
        manifest = json.loads((workspace["tmp"] / "pred.tsv.manifest.json").read_text())
        assert manifest["inputs"][str(pred)] == "sha256:" + hashlib.sha256(data).hexdigest()

    def test_csv_report(self, workspace):
        pred = workspace["tmp"] / "pred.tsv"
        gold_lines = workspace["train"].read_text().splitlines()[1:]
        pred.write_text(
            "id\tprediction\n" + "\n".join(f"{l.split(chr(9))[0]}\t0.5" for l in gold_lines) + "\n"
        )
        report = workspace["tmp"] / "report.csv"
        assert run("evaluate", "--pred", pred, "--gold", workspace["train"],
                   "--report", report, "--format", "csv") == 0
        assert report.read_text().splitlines()[0] == "label,r,rho,mae,mse"

    def test_bad_config_fails_before_any_output(self, workspace, capsys):
        pred = workspace["tmp"] / "pred.tsv"
        gold_lines = workspace["train"].read_text().splitlines()[1:]
        pred.write_text(
            "id\tprediction\n" + "\n".join(f"{l.split(chr(9))[0]}\t0.5" for l in gold_lines) + "\n"
        )
        config = workspace["tmp"] / "bad.ini"
        config.write_text("[features]\npreset = nope\n")
        report = workspace["tmp"] / "report.md"
        code = run("evaluate", "--config", config, "--pred", pred, "--gold", workspace["train"],
                   "--report", report)
        assert code == 2
        captured = capsys.readouterr()
        assert "nope" in captured.err
        assert "mae=" not in captured.out
        assert not report.exists()
        assert not (workspace["tmp"] / "report.md.manifest.json").exists()

    @pytest.mark.parametrize("data", ["eval_on = nope", "dev_fraction = 1.5"])
    def test_bad_data_value_writes_nothing(self, workspace, data, capsys):
        pred = workspace["tmp"] / "pred.tsv"
        gold_lines = workspace["train"].read_text().splitlines()[1:]
        pred.write_text(
            "id\tprediction\n" + "\n".join(f"{l.split(chr(9))[0]}\t0.5" for l in gold_lines) + "\n"
        )
        config = workspace["tmp"] / "bad.ini"
        config.write_text(f"[data]\n{data}\n")
        report = workspace["tmp"] / "report.md"
        code = run("evaluate", "--config", config, "--pred", pred, "--gold", workspace["train"],
                   "--report", report)
        assert code == 2
        captured = capsys.readouterr()
        assert f"[data] {data.split()[0]}" in captured.err
        assert "mae=" not in captured.out
        assert not report.exists()
        assert not (workspace["tmp"] / "report.md.manifest.json").exists()

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_non_finite_prediction_names_file_and_line(self, workspace, value, capsys):
        pred = workspace["tmp"] / "pred.tsv"
        pred.write_text(f"id\tprediction\nt0000\t0.5\nt0001\t{value}\n")
        code = run("evaluate", "--pred", pred, "--gold", workspace["train"])
        assert code == 2
        assert f"predictions file {pred} line 3: non-finite prediction" in capsys.readouterr().err

    def test_missing_ids_listed(self, workspace, capsys):
        pred = workspace["tmp"] / "pred.tsv"
        pred.write_text("id\tprediction\nt0000\t0.5\n")
        code = run("evaluate", "--pred", pred, "--gold", workspace["train"])
        assert code == 2
        assert "t0001" in capsys.readouterr().err


class TestAblate:
    def test_ablation_report(self, workspace, capsys):
        report = workspace["tmp"] / "ablation.md"
        code = run("ablate", "--config", workspace["config"], "--report", report,
                   "--candidates", "prevalence,aoa", "--preset", "baseline")
        assert code == 0
        text = report.read_text()
        lines = text.splitlines()
        assert lines[0] == "| Label | R | ρ | MAE | MSE |"
        assert lines[2].startswith("| baseline |")
        assert lines[3].startswith("| prevalence |")
        assert lines[4].startswith("| aoa |")

    def test_duplicate_candidates_refused_before_any_input(self, workspace, capsys):
        report = workspace["tmp"] / "dup.md"
        code = run("ablate", "--train", workspace["tmp"] / "missing.tsv", "--candidates", "aoa,aoa",
                   "--report", report)
        assert code == 2
        assert capsys.readouterr().err == "error: duplicate candidate families\n"
        assert not report.exists()

    def test_empty_candidates(self, workspace):
        report = workspace["tmp"] / "base_only.md"
        assert run("ablate", "--config", workspace["config"], "--report", report, "--quiet") == 0
        assert len(report.read_text().splitlines()) == 3


class TestCoverage:
    def test_coverage_fraction(self, workspace, capsys):
        code = run("coverage", "--config", workspace["config"], "--lexicon", "prevalence")
        assert code == 0
        out = capsys.readouterr().out
        assert "lexicon=prevalence" in out
        assert "fraction=0.8000" in out

    def test_unconfigured_lexicon_is_resource_error(self, workspace, capsys):
        code = run("coverage", "--config", workspace["config"], "--lexicon", "familiarity_mrc")
        assert code == 3
        assert "familiarity_mrc" in capsys.readouterr().err


class TestParser:
    def test_help_exits_zero(self, capsys):
        assert run("--help") == 0
        assert "train" in capsys.readouterr().out

    def test_subcommand_help_lists_flags_with_defaults(self, capsys):
        assert run("train", "--help") == 0
        out = capsys.readouterr().out
        for flag in ("--config", "--seed", "--threads", "--quiet", "--model", "--preset"):
            assert flag in out
        assert "default" in out

    @pytest.mark.parametrize("command", ["train", "predict", "evaluate", "ablate", "coverage"])
    def test_help_states_each_default_once(self, command, capsys, monkeypatch):
        monkeypatch.setenv("COLUMNS", "400")  # one line per option
        assert run(command, "--help") == 0
        options = [line for line in capsys.readouterr().out.splitlines() if line.lstrip().startswith("-")]
        assert options
        for line in options:
            assert line.count("(default:") <= 1, line
            assert "(default: None)" not in line, line

    def test_missing_required_flag_is_usage_error(self, capsys):
        assert run("train") == 1
        assert "error:" in capsys.readouterr().err

    def test_unknown_command_is_usage_error(self, capsys):
        assert run("transmogrify") == 1


PREDICTION_TOKENS = [b"", b"id", b"prediction", b"t1", b"0.5", b"nan", b"-inf", b"x", b"\xff"]


class TestParsePredictionsFuzz:
    """_parse_predictions either returns id -> float or raises DataError."""

    @settings(max_examples=300, deadline=None)
    @given(tsv_inputs(b"id\tprediction\tband\nt1\t0.500\tdifficult\nt2\t0.1\teasy\n", PREDICTION_TOKENS, 3))
    def test_arbitrary_and_mutated_bytes(self, data):
        try:
            predictions = _parse_predictions(data, "pred.tsv")
        except DataError:
            return
        assert all(isinstance(v, float) and math.isfinite(v) for v in predictions.values())


#: Words that reach the run config's section, key and value checks.
CONFIG_TOKENS = [b"", b"=", b"0", b"-1", b"1.5", b"none", b"true", b"maybe", b"weird", b"binary", b"nope",
                 b"lcp_rit", b"length,pos", b"[x]", b"[lexicon:]", b"%(x)s", b"\xff", b"\t"]


#: Every section of the run config with its keys; ``lexicon:x`` stands for any lexicon.
CONFIG_KEYS = {section: [k for s, k in _KEYS if s == section] for section, _ in _KEYS}
CONFIG_KEYS["lexicon:x"] = [f.name for f in fields(LexiconSpec) if f.name != "name"]


@st.composite
def config_sections(draw) -> bytes:
    """Known sections and keys with values drawn from CONFIG_TOKENS. A
    lexicon section names its path, so its other values reach LexiconSpec."""
    lines = []
    for section in draw(st.lists(st.sampled_from(sorted(CONFIG_KEYS)), min_size=1, max_size=4, unique=True)):
        lines.append(f"[{section}]".encode() + (b"\npath = x.tsv" if section.startswith("lexicon:") else b""))
        for key in draw(st.lists(st.sampled_from(CONFIG_KEYS[section]), min_size=1, max_size=4, unique=True)):
            lines.append(key.encode() + b" = " + draw(st.sampled_from(CONFIG_TOKENS)))
    return b"\n".join(lines)


@pytest.fixture(scope="module")
def fuzz_workspace(tmp_path_factory):
    """A CLI workspace with a trained model, and predictions for every
    training id."""
    ws = build_workspace(tmp_path_factory.mktemp("fuzz"))
    ws["model"] = ws["tmp"] / "m.lcpmodel"
    assert run("train", "--config", ws["config"], "--model", ws["model"], "--quiet") == 0
    ws["pred"] = ws["tmp"] / "pred.tsv"
    ids = [line.split("\t")[0] for line in ws["train"].read_text().splitlines()]
    ws["pred"].write_text("id\tprediction\n" + "".join(f"{i}\t0.5\n" for i in ids[1:]))
    return ws


def quiet_main(*argv) -> tuple[int, str]:
    """``main``'s exit code and what it wrote to stderr."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = run(*argv)
    return code, err.getvalue()


class TestRunConfigFuzz:
    """load_run_config either returns a config or raises an LcpkitError, and
    ``lcp`` turns a fuzzed config into an exit code, never a traceback."""

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_arbitrary_and_mutated_configs(self, fuzz_workspace, data):
        valid = fuzz_workspace["config"].read_bytes() + b"\n[features]\npreset = lcp_rit\ntrigram_min_count = 5\n"
        choice = data.draw(st.integers(0, 2))
        if choice == 0:
            text = data.draw(st.binary(max_size=200))
        elif choice == 1:
            text = data.draw(config_sections())
        else:
            text = data.draw(mutated(valid, b" ", CONFIG_TOKENS))
        path = fuzz_workspace["tmp"] / "fuzzed.ini"
        path.write_bytes(text)
        try:
            load_run_config(str(path))
        except LcpkitError:
            pass
        code, err = quiet_main("evaluate", "--config", path, "--pred", fuzz_workspace["pred"],
                               "--gold", fuzz_workspace["train"])
        assert code in (0, 1, 2, 3)
        assert code == 0 or err.startswith("error: ")


class TestSchemaSidecarFuzz:
    """``lcp predict`` turns a fuzzed schema sidecar into an exit code, never
    a traceback."""

    @settings(max_examples=100, deadline=None)
    @given(st.data())
    def test_arbitrary_and_mutated_sidecars(self, fuzz_workspace, data):
        valid = (fuzz_workspace["tmp"] / "m.lcpmodel.schema.json").read_bytes()
        choice = data.draw(st.integers(0, 2))
        if choice == 0:
            text = data.draw(st.binary(max_size=200))
        elif choice == 1:
            text = data.draw(mutated(valid, b" ", [b"NaN", b"-1", b"[]", b"{}", b'"x"', b"null", b"1e400"]))
        else:
            text = data.draw(mutated_json(valid))
        sidecar = fuzz_workspace["tmp"] / "fuzzed.schema.json"
        sidecar.write_bytes(text)
        code, err = quiet_main("predict", "--config", fuzz_workspace["config"], "--model", fuzz_workspace["model"],
                               "--schema", sidecar, "--input", fuzz_workspace["test"],
                               "--output", fuzz_workspace["tmp"] / "fuzzed.tsv")
        assert code in (0, 1, 2, 3)
        assert code == 0 or err.startswith("error: ")


COMMANDS = ["train", "predict", "evaluate", "ablate", "coverage"]
#: One bad value each: flags, or a config file's lines. Some flags are not
#: every command's, which argparse refuses as well.
BAD_FLAGS = [
    ["--threads", "-1"], ["--seed", "x"], ["--dev-fraction", "1.5"], ["--eval-on", "nope"], ["--preset", "nope"],
    ["--features", "bogus"], ["--features", " , "], ["--candidates", "aoa,aoa"], ["--candidates", "bogus"],
    ["--format", "pdf"], ["--bogus"],
]
BAD_CONFIG_LINES = [
    "[run]\nthreads = -1", "[run]\nseed = x", "[data]\ndev_fraction = 0", "[data]\neval_on = nope",
    "[features]\npreset = nope", "[features]\nenabled = bogus", "[features]\ntrigram_min_count = 0",
    "[features]\nfrequency_source = nope", "[forest]\nn_trees = 0", "[forest]\nbootstrap = maybe",
    "[forest]\nmax_depth = x", "[forest]\nbogus = 1", "[bogus]\nx = 1", "[lexicon:y]\npath = y.tsv\nkind = weird",
    "[lexicon:y]\npath = y.tsv\nskip_rows = -1", "[lexicon: ]\npath = y.tsv", "no section header",
]


class TestBadArgumentsBeforeInputs:
    """Every command refuses a bad flag or config value before it reads an
    input: with every input missing, it exits 1 or 2, not 3 (cannot read),
    with one error line, and writes nothing."""

    @staticmethod
    def argv(command: str, missing, out) -> list:
        return {
            "train": ["--train", missing / "train.tsv", "--model", out / "m.lcpmodel"],
            "predict": ["--model", missing / "m.lcpmodel", "--input", missing / "test.tsv",
                        "--output", out / "pred.tsv"],
            "evaluate": ["--pred", missing / "pred.tsv", "--gold", missing / "gold.tsv", "--report", out / "r.md"],
            "ablate": ["--train", missing / "train.tsv", "--report", out / "r.md"],
            "coverage": ["--train", missing / "train.tsv", "--lexicon", "x"],
        }[command]

    @pytest.mark.parametrize("command", COMMANDS)
    def test_unknown_config_preset_refused(self, tmp_path, command, capsys):
        config = tmp_path / "run.ini"
        config.write_text(f"[features]\npreset = nope\n\n[lexicon:x]\npath = {tmp_path / 'x.tsv'}\n")
        tmp_path.joinpath("out").mkdir()
        code = run(command, "--config", config, *self.argv(command, tmp_path / "missing", tmp_path / "out"))
        assert code == 2
        assert capsys.readouterr().err == f"error: unknown preset 'nope'; choose from {sorted(PRESETS)}\n"

    @settings(max_examples=200, deadline=None)
    @given(command=st.sampled_from(COMMANDS),
           bad=st.one_of(st.sampled_from(BAD_FLAGS), st.sampled_from(BAD_CONFIG_LINES)))
    def test_refused_with_every_input_missing(self, tmp_path_factory, command, bad):
        tmp = tmp_path_factory.mktemp("bad")
        missing, out = tmp / "missing", tmp / "out"
        out.mkdir()
        config = tmp / "run.ini"
        lines = bad if isinstance(bad, str) else ""
        config.write_text(f"[lexicon:x]\npath = {missing / 'x.tsv'}\n\n{lines}\n")
        flags = bad if isinstance(bad, list) else []
        code, err = quiet_main(command, "--config", config, *self.argv(command, missing, out), *flags)
        assert code in (1, 2), err
        assert [line for line in err.splitlines() if line.startswith("error:")] == err.splitlines()[-1:]
        assert "Traceback" not in err
        assert list(out.iterdir()) == []
