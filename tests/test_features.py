import json
import math
import random
from functools import cache

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from lcpkit.corpus import Instance
from lcpkit.errors import DataError, LcpkitError, ResourceError
from lcpkit.features import (
    FEATURE_FAMILIES,
    FREQUENCY_SOURCES,
    POS_TAGSET,
    FeatureConfig,
    FeatureSchema,
    LexiconTagger,
    PRESETS,
    char_ngrams,
    check_resources,
    extract_matrix,
    fit_schema,
    syllable_count,
)
from lcpkit.lexicons import BINARY, CONTINUOUS, Lexicon, LexiconSpec

from conftest import binary_lexicon, continuous_lexicon, make_registry, mutated, mutated_json, tsv_inputs


def inst(token, ident="t1", gold=0.5) -> Instance:
    return Instance(ident, "bible", f"the word {token} in context", token, gold)


def extract_one(instance, schema, registry, tagger=None) -> np.ndarray:
    """The feature vector of one instance: a one-row ``extract_matrix``."""
    X = extract_matrix([instance], schema, registry, tagger)
    assert X.shape == (1, len(schema.columns))
    return X[0]


class TestSyllables:
    @pytest.mark.parametrize(
        "word,count",
        [
            ("cat", 1),
            ("house", 1),
            ("simple", 2),
            ("apple", 2),
            ("able", 2),
            ("ale", 1),
            ("bee", 1),
            ("rhythm", 1),
            ("beautiful", 3),
            ("y", 1),
            ("strength", 1),
            ("EVERYONE", 3),
        ],
    )
    def test_hand_counts(self, word, count):
        assert syllable_count(word) == count

    def test_always_at_least_one(self):
        rng = random.Random(0)
        alphabet = "bcdfghjklmnpqrstvwxz"
        for _ in range(200):
            word = "".join(rng.choice(alphabet) for _ in range(rng.randint(1, 12)))
            assert syllable_count(word) >= 1

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            syllable_count("")


class TestCharNgrams:
    def test_trigrams(self):
        assert char_ngrams("cat", 3) == ["^ca", "cat", "at$"]

    def test_bigrams(self):
        assert char_ngrams("cat", 2) == ["^c", "ca", "at", "t$"]

    def test_single_char(self):
        assert char_ngrams("a", 3) == ["^a$"]

    def test_lowercases(self):
        assert char_ngrams("CAT", 3) == ["^ca", "cat", "at$"]

    def test_duplicates_retained(self):
        assert char_ngrams("aaaa", 2) == ["^a", "aa", "aa", "aa", "a$"]

    @pytest.mark.parametrize("n", [1, 4, 0])
    def test_bad_n_rejected(self, n):
        with pytest.raises(ValueError):
            char_ngrams("cat", n)

    def test_empty_word_rejected(self):
        with pytest.raises(ValueError, match="non-empty word"):
            char_ngrams("", 3)


class TestFeatureConfig:
    def test_presets(self):
        assert PRESETS["baseline"] == {"length", "syllables", "frequency", "char_trigrams"}
        assert PRESETS["model1"] == PRESETS["baseline"] | {
            "aoa",
            "prevalence",
            "concreteness_brysbaert",
        }
        assert PRESETS["model2"] == PRESETS["model1"] | {"familiarity_mrc", "prior_complexity"}
        assert PRESETS["lcp_rit"] == PRESETS["model1"] | {"arousal"}

    def test_unknown_family_rejected(self):
        with pytest.raises(ValueError):
            FeatureConfig(enabled=frozenset({"length", "embeddings"}))

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            FeatureConfig(enabled=frozenset())

    def test_unknown_preset_rejected(self):
        with pytest.raises(ValueError):
            FeatureConfig.preset("model9")


def every_family_schema():
    """Registry, tagger and schema with all 13 families on, bigrams and trigrams both."""
    lexicons = {
        name: continuous_lexicon(name, {"cat": 2.0, "dog": 3.0})
        for name in (
            "aoa_1981", "aoa_2017", "prevalence", "concreteness_brysbaert",
            "concreteness_mrc", "familiarity_mrc", "arousal", "frequency",
        )
    }
    lexicons["prior_complexity_x"] = binary_lexicon("prior_complexity_x", {"cat": 1.0})
    registry = make_registry(**lexicons)
    tagger = LexiconTagger({"cat": "NOUN"})
    train = [inst("cat", "i1"), inst("cat", "i2")]
    config = FeatureConfig(enabled=frozenset(FEATURE_FAMILIES), trigram_min_count=2)
    return registry, tagger, fit_schema(train, registry, config, tagger)


class TestFitSchema:
    def test_column_order_with_every_family(self):
        _, _, schema = every_family_schema()
        lexicon_pairs = [
            col
            for fam in (
                "frequency", "aoa", "prevalence", "concreteness_brysbaert", "concreteness_mrc",
                "familiarity_mrc", "arousal", "prior_complexity",
            )
            for col in (fam, f"{fam}_present")
        ]
        assert schema.columns == (
            "length", "syllables", *lexicon_pairs,
            "pos=ADJ", "pos=ADP", "pos=ADV", "pos=CONJ", "pos=DET", "pos=NOUN",
            "pos=NUM", "pos=PRON", "pos=PRT", "pos=VERB", "pos=X", "pos=.",
            "bigram_log_mean", "bigram_log_min", "trigram_log_mean", "trigram_log_min",
            "bi:^c", "bi:at", "bi:ca", "bi:t$",
            "tri:^ca", "tri:at$", "tri:cat",
        )

    def test_trigram_vocab_counting(self):
        train = [inst(t, f"i{k}") for k, t in enumerate(["cat", "cap", "cat"])]
        config = FeatureConfig(enabled=frozenset({"char_trigrams"}), trigram_min_count=2)
        schema = fit_schema(train, make_registry(), config)
        # ^ca appears 3 times, cat and at$ twice, cap/ap$ once
        assert schema.trigram_vocab == ("^ca", "at$", "cat")
        assert schema.trigram_counts == {"^ca": 3, "at$": 2, "cat": 2}

    def test_vocab_cap_with_lexicographic_ties(self):
        train = [inst(t, f"i{k}") for k, t in enumerate(["ab", "ab", "cd", "cd"])]
        config = FeatureConfig(
            enabled=frozenset({"char_trigrams"}), trigram_min_count=1, trigram_max_vocab=3
        )
        schema = fit_schema(train, make_registry(), config)
        # all six trigrams tie at count 2; lexicographic order decides the cap
        assert schema.trigram_vocab == ("^ab", "^cd", "ab$")

    def test_impute_mean_over_covered_targets(self):
        train = [inst("cat", "i1"), inst("dog", "i2"), inst("newt", "i3")]
        registry = make_registry(prev=continuous_lexicon("prevalence", {"cat": 2.0, "dog": 4.0}))
        config = FeatureConfig(enabled=frozenset({"length", "prevalence"}))
        schema = fit_schema(train, registry, config)
        assert schema.impute["prevalence"] == pytest.approx(3.0)

    def test_zero_coverage_fails_fast(self):
        train = [inst("cat", "i1")]
        registry = make_registry(prev=continuous_lexicon("prevalence", {"zebra": 1.0}))
        config = FeatureConfig(enabled=frozenset({"prevalence"}))
        with pytest.raises(ResourceError, match="prevalence"):
            fit_schema(train, registry, config)

    def test_missing_family_resource_names_family(self):
        config = FeatureConfig(enabled=frozenset({"length", "arousal"}))
        with pytest.raises(ResourceError, match="arousal"):
            fit_schema([inst("cat")], make_registry(), config)

    def test_missing_frequency_lexicon(self):
        config = FeatureConfig(enabled=frozenset({"frequency"}), frequency_source="lexicon")
        with pytest.raises(ResourceError, match="frequency"):
            fit_schema([inst("cat")], make_registry(), config)

    def test_pos_without_tagger_fails(self):
        config = FeatureConfig(enabled=frozenset({"pos"}))
        with pytest.raises(ResourceError, match="pos"):
            fit_schema([inst("cat")], make_registry(), config)

    def test_aoa_merges_both_sources(self):
        train = [inst("cat", "i1")]
        registry = make_registry(
            a=continuous_lexicon("aoa_1981", {"cat": 2.0}),
            b=continuous_lexicon("aoa_2017", {"cat": 6.0}),
        )
        schema = fit_schema(train, registry, FeatureConfig(enabled=frozenset({"aoa"})))
        assert schema.impute["aoa"] == pytest.approx(4.0)

    def test_aoa_single_source_fallback(self):
        registry = make_registry(a=continuous_lexicon("aoa_2017", {"cat": 6.0}))
        schema = fit_schema([inst("cat")], registry, FeatureConfig(enabled=frozenset({"aoa"})))
        assert schema.impute["aoa"] == pytest.approx(6.0)

    def test_prior_complexity_unions_sources(self):
        registry = make_registry(
            a=binary_lexicon("prior_complexity_2016", {"cat": 0.0}),
            b=binary_lexicon("prior_complexity_wcl", {"cat": 1.0}),
        )
        config = FeatureConfig(enabled=frozenset({"prior_complexity"}))
        schema = fit_schema([inst("cat")], registry, config)
        assert schema.impute["prior_complexity"] == 1.0

    def test_deterministic(self, tiny_instances):
        registry = make_registry(
            prev=continuous_lexicon("prevalence", {"river": 2.0, "protein": 3.0})
        )
        config = FeatureConfig(
            enabled=frozenset({"length", "syllables", "char_trigrams", "prevalence"}),
            trigram_min_count=1,
        )
        a = fit_schema(tiny_instances, registry, config)
        b = fit_schema(tiny_instances, registry, config)
        assert a.columns == b.columns
        assert a.trigram_vocab == b.trigram_vocab
        assert a.impute == b.impute

    def test_empty_train_rejected(self):
        with pytest.raises(ValueError):
            fit_schema([], make_registry(), FeatureConfig(enabled=frozenset({"length"})))

    def test_schema_json_round_trip(self, tiny_instances):
        registry = make_registry(
            prev=continuous_lexicon("prevalence", {"river": 2.0}),
            freq=continuous_lexicon("frequency", {"river": 100.0}),
        )
        config = FeatureConfig(
            enabled=frozenset({"length", "frequency", "char_trigrams", "prevalence"}),
            trigram_min_count=1,
        )
        schema = fit_schema(tiny_instances, registry, config)
        again = type(schema).from_json(schema.to_json())
        assert again.columns == schema.columns
        assert again.to_json() == schema.to_json()

    @pytest.mark.parametrize(
        "field,value",
        [("impute", []), ("trigram_counts", "abc"), ("impute", {"prevalence": math.nan}), ("internal_frequency", None)],
    )
    def test_bad_sidecar_field_is_data_error(self, field, value):
        doc = json.loads(sidecar_schema().to_json())
        doc[field] = value
        with pytest.raises(DataError, match="schema file: bad content"):
            FeatureSchema.from_json(json.dumps(doc).encode("utf-8"))

    @pytest.mark.parametrize("field,key,value", [("trigram_counts", "^ca", 2.5), ("internal_frequency", "cat", True)])
    def test_non_integer_sidecar_count_is_data_error(self, field, key, value):
        doc = json.loads(sidecar_schema().to_json())
        assert type(doc[field][key]) is int
        doc[field][key] = value
        with pytest.raises(DataError, match="schema file: bad content: counts must be JSON integers"):
            FeatureSchema.from_json(json.dumps(doc).encode("utf-8"))

    @pytest.mark.parametrize(
        "key,value",
        [("trigram_min_count", math.nan), ("trigram_max_vocab", 2.5), ("trigram_min_count", True)],
    )
    def test_non_integer_config_count_is_data_error(self, key, value):
        doc = json.loads(sidecar_schema().to_json())
        doc["config"][key] = value
        with pytest.raises(DataError, match=f"schema file: bad content: config {key} must be an integer"):
            FeatureSchema.from_json(json.dumps(doc).encode("utf-8"))

    @pytest.mark.parametrize("enabled", [{"length": 0, "syllables": "x"}, "length", ["length", 5]])
    def test_enabled_families_not_a_list_of_strings_is_data_error(self, enabled):
        doc = json.loads(sidecar_schema().to_json())
        doc["config"]["enabled"] = enabled
        with pytest.raises(DataError, match="schema file: bad content: "):
            FeatureSchema.from_json(json.dumps(doc).encode("utf-8"))

    def test_deeply_nested_sidecar_is_invalid_json(self):
        with pytest.raises(DataError, match="schema file: invalid JSON: "):
            FeatureSchema.from_json(b"[" * 200_000)

    @pytest.mark.parametrize("encoding", ["utf-16", "latin-1"])
    def test_non_utf8_sidecar_is_data_error(self, encoding):
        text = sidecar_schema().to_json().replace("cat", "caté")
        with pytest.raises(DataError, match="schema file: not valid UTF-8"):
            FeatureSchema.from_json(text.encode(encoding))


@cache
def sidecar_schema() -> FeatureSchema:
    """A fitted schema whose sidecar carries every fitted field."""
    train = [inst("cat", "i1"), inst("catnip", "i2")]
    registry = make_registry(prev=continuous_lexicon("prevalence", {"cat": 2.0}))
    config = FeatureConfig(
        enabled=frozenset({"length", "frequency", "prevalence", "pos", "char_bigrams", "char_trigrams"}),
        trigram_min_count=1,
        frequency_source="corpus_internal",
    )
    return fit_schema(train, registry, config, LexiconTagger({"cat": "NOUN"}))


#: Registry names a config may hold: every fixed name a family reads, some
#: ``prior_complexity*`` names and some that no family reads.
CONFIGURABLE_NAMES = (
    "aoa_1981", "aoa_2017", "frequency", "prevalence", "concreteness_brysbaert", "concreteness_mrc",
    "familiarity_mrc", "arousal", "prior_complexity", "prior_complexity_2016", "prior_complexity_wcl",
    "aoa", "pos", "complexity",
)


class TestResourceCheck:
    """``check_resources`` on the configured specs refuses exactly what
    ``fit_schema`` refuses on the loaded lexicons, and names exactly the
    registry entries that extraction reads."""

    @staticmethod
    def outcome(call):
        try:
            return call()
        except (LcpkitError, ValueError) as exc:
            return type(exc), str(exc)

    @settings(max_examples=300, deadline=None)
    @given(
        enabled=st.frozensets(st.sampled_from(FEATURE_FAMILIES), min_size=1),
        frequency_source=st.sampled_from(FREQUENCY_SOURCES),
        configured=st.dictionaries(
            st.sampled_from(CONFIGURABLE_NAMES), st.tuples(st.sampled_from([CONTINUOUS, BINARY]), st.booleans())
        ),
        has_tagger=st.booleans(),
    )
    def test_names_only_check_agrees_with_extraction(self, enabled, frequency_source, configured, has_tagger):
        config = FeatureConfig(enabled=enabled, frequency_source=frequency_source)
        specs = {
            name: LexiconSpec(name=name, path=f"{name}.tsv", kind=kind, lowercase=lowercase)
            for name, (kind, lowercase) in configured.items()
        }
        registry = make_registry(**{
            name: Lexicon(name, spec.kind, {"cat": 1.0}, spec.lowercase) for name, spec in specs.items()
        })
        read: list[str] = []
        view = registry.view
        registry.view = lambda names, merge: read.extend(names) or view(names, merge)
        tagger = LexiconTagger({"cat": "NOUN"}) if has_tagger else None

        def checked():
            return [name for _, names in check_resources(config, specs, has_tagger) for name in names]

        def extracted():
            fit_schema([inst("cat")], registry, config, tagger)
            return read

        assert self.outcome(checked) == self.outcome(extracted)


class TestExtract:
    def make_schema(self, tokens=("cat", "dog", "newt"), families=("length",), **kwargs):
        train = [inst(t, f"i{k}") for k, t in enumerate(tokens)]
        registry = make_registry(**kwargs)
        config = FeatureConfig(enabled=frozenset(families), trigram_min_count=1)
        return train, registry, fit_schema(train, registry, config)

    def test_length_column(self):
        _, registry, schema = self.make_schema()
        assert extract_one(inst("cat"), schema, registry).tolist() == [3.0]

    def test_imputed_value_with_indicator(self):
        _, registry, schema = self.make_schema(
            families=("prevalence",),
            prev=continuous_lexicon("prevalence", {"cat": 2.0, "dog": 2.2}),
        )
        covered = extract_one(inst("cat"), schema, registry)
        missing = extract_one(inst("zebra"), schema, registry)
        assert covered.tolist() == [2.0, 1.0]
        assert missing.tolist() == [pytest.approx(2.1), 0.0]

    def test_trigram_count_columns(self):
        train = [inst(t, f"i{k}") for k, t in enumerate(["cat", "cat", "xyz", "xyz"])]
        config = FeatureConfig(enabled=frozenset({"char_trigrams"}), trigram_min_count=2)
        schema = fit_schema(train, make_registry(), config)
        vec = extract_one(inst("cat"), schema, make_registry())
        names = schema.columns
        counts = dict(zip(names[2:], vec[2:]))
        assert counts["tri:^ca"] == 1.0
        assert counts["tri:at$"] == 1.0
        assert counts["tri:^xy"] == 0.0

    def test_trigram_aggregates(self):
        train = [inst("cat", "i1"), inst("cat", "i2")]
        config = FeatureConfig(enabled=frozenset({"char_trigrams"}), trigram_min_count=1)
        schema = fit_schema(train, make_registry(), config)
        vec = extract_one(inst("cap"), schema, make_registry())
        # trigrams of ^cap$: ^ca (count 2), cap (0), ap$ (0)
        logs = [math.log1p(2), 0.0, 0.0]
        assert vec[0] == pytest.approx(sum(logs) / 3)
        assert vec[1] == 0.0

    def test_frequency_log_and_indicator(self):
        _, registry, schema = self.make_schema(
            families=("frequency",),
            freq=continuous_lexicon("frequency", {"cat": 99.0}),
        )
        present = extract_one(inst("cat"), schema, registry)
        absent = extract_one(inst("zebra"), schema, registry)
        assert present.tolist() == [pytest.approx(math.log1p(99.0)), 1.0]
        assert absent.tolist() == [0.0, 0.0]

    def test_corpus_internal_frequency(self):
        train = [
            Instance("i1", "bible", "the cat saw the cat", "cat", 0.1),
            Instance("i2", "bible", "a dog barked", "dog", 0.2),
        ]
        config = FeatureConfig(enabled=frozenset({"frequency"}), frequency_source="corpus_internal")
        schema = fit_schema(train, make_registry(), config)
        vec = extract_one(train[0], schema, make_registry())
        assert vec.tolist() == [pytest.approx(math.log1p(2)), 1.0]

    def test_pos_one_hot(self):
        tagger = LexiconTagger({"river": "NOUN"})
        train = [inst("river", "i1"), inst("flows", "i2")]
        config = FeatureConfig(enabled=frozenset({"pos"}))
        schema = fit_schema(train, make_registry(), config, tagger)
        names = schema.columns
        vec = extract_one(inst("river"), schema, make_registry(), tagger)
        assert vec[names.index("pos=NOUN")] == 1.0
        assert vec.sum() == 1.0
        unknown = extract_one(inst("qqq"), schema, make_registry(), tagger)
        assert unknown[names.index("pos=X")] == 1.0

    def test_vector_length_matches_schema(self, tiny_instances):
        registry = make_registry(
            prev=continuous_lexicon("prevalence", {"river": 2.0}),
            freq=continuous_lexicon("frequency", {"river": 10.0}),
        )
        config = FeatureConfig(
            enabled=frozenset(
                {"length", "syllables", "frequency", "char_bigrams", "char_trigrams", "prevalence"}
            ),
            trigram_min_count=1,
        )
        schema = fit_schema(tiny_instances, registry, config)
        X = extract_matrix(tiny_instances, schema, registry)
        assert X.shape == (len(tiny_instances), len(schema.columns))
        assert np.all(np.isfinite(X))

    def test_disabling_family_only_removes_its_columns(self, tiny_instances):
        registry = make_registry(
            prev=continuous_lexicon("prevalence", {"river": 2.0, "enzyme": 1.0})
        )
        base_families = {"length", "syllables", "char_trigrams", "prevalence"}
        config_all = FeatureConfig(enabled=frozenset(base_families), trigram_min_count=1)
        config_less = FeatureConfig(
            enabled=frozenset(base_families - {"prevalence"}), trigram_min_count=1
        )
        schema_all = fit_schema(tiny_instances, registry, config_all)
        schema_less = fit_schema(tiny_instances, registry, config_less)
        removed = {"prevalence", "prevalence_present"}
        assert set(schema_all.columns) - set(schema_less.columns) == removed
        X_all = extract_matrix(tiny_instances, schema_all, registry)
        X_less = extract_matrix(tiny_instances, schema_less, registry)
        keep = [i for i, n in enumerate(schema_all.columns) if n not in removed]
        assert np.array_equal(X_all[:, keep], X_less)

    def test_extract_is_the_matrix_row(self):
        registry, tagger, schema = every_family_schema()
        probes = [inst(t, f"p{k}") for k, t in enumerate(["cat", "zebra", "Cats", "ß", "a-b"])]
        X = extract_matrix(probes, schema, registry, tagger)
        for k, probe in enumerate(probes):
            assert extract_matrix([probe], schema, registry, tagger).tobytes() == X[k : k + 1].tobytes()

    def test_matrix_is_column_major_and_the_stacked_rows(self):
        registry, tagger, schema = every_family_schema()
        probes = [inst(t, f"p{k}") for k, t in enumerate(["cat", "zebra", " Cats ", "a", "banana", "a-b"])]
        X = extract_matrix(probes, schema, registry, tagger)
        assert X.flags.f_contiguous and X.dtype == np.float64
        rows = np.vstack([extract_matrix([probe], schema, registry, tagger) for probe in probes])
        assert X.tobytes() == rows.tobytes()

    def test_ngram_columns_match_a_per_row_reference(self):
        train = [inst(t, f"i{k}") for k, t in enumerate(["banana", "bandana", "cab", "a", "nab", "banana"])]
        config = FeatureConfig(enabled=frozenset({"char_bigrams", "char_trigrams"}), trigram_min_count=1)
        registry = make_registry()
        schema = fit_schema(train, registry, config)
        # repeated grams, grams all outside the vocabulary, one letter, and a
        # key that is stripped and lowercased
        tokens = ["banana", "qxz", "a", " BanDana ", "cab", "zz"]
        assert not {g for n in (2, 3) for g in char_ngrams("qxz", n)} & set(schema.bigram_vocab + schema.trigram_vocab)
        X = extract_matrix([inst(t, f"p{k}") for k, t in enumerate(tokens)], schema, registry)
        for name, n, prefix in (("bigram", 2, "bi:"), ("trigram", 3, "tri:")):
            counts, vocab = getattr(schema, f"{name}_counts"), getattr(schema, f"{name}_vocab")
            expected = np.zeros((len(tokens), 2 + len(vocab)))
            for k, token in enumerate(tokens):
                grams = char_ngrams(token.strip(), n)
                logs = [math.log1p(counts.get(g, 0)) for g in grams]
                expected[k, :2] = sum(logs) / len(logs), min(logs)
                for g in grams:
                    if g in vocab:
                        expected[k, 2 + vocab.index(g)] += 1.0
            columns = [schema.columns.index(f"{name}_log_mean"), schema.columns.index(f"{name}_log_min")]
            columns += [schema.columns.index(prefix + g) for g in vocab]
            assert X[:, columns].tobytes() == expected.tobytes()
        assert X[0, schema.columns.index("tri:ana")] == 2.0

    def test_extract_total_over_odd_tokens(self):
        _, registry, schema = self.make_schema(
            tokens=("cat", "dog"),
            families=("length", "syllables", "frequency", "char_trigrams", "prevalence"),
            prev=continuous_lexicon("prevalence", {"cat": 2.0}),
            freq=continuous_lexicon("frequency", {"cat": 5.0}),
        )
        odd_tokens = ["固", "ß", "ŒUF", "a-b", "x1", "...", "日本語", "🙂"]
        for k, tok in enumerate(odd_tokens):
            vec = extract_one(inst(tok, f"o{k}"), schema, registry)
            assert vec.shape == (len(schema.columns),)
            assert np.all(np.isfinite(vec))


class TestLexiconTagger:
    def test_load_and_lookup(self):
        tagger = LexiconTagger.load(b"river\tNOUN\nrun\tVERB\n")
        assert tagger("river", "") == "NOUN"
        assert tagger("River", "") == "NOUN"

    def test_unknown_token_gets_x(self):
        tagger = LexiconTagger.load(b"river\tNOUN\n")
        assert tagger("zzz", "") == "X"

    def test_most_frequent_tag_wins(self):
        tagger = LexiconTagger.load(b"run\tVERB\nrun\tNOUN\nrun\tVERB\n")
        assert tagger("run", "") == "VERB"

    def test_tie_breaks_lexicographically(self):
        tagger = LexiconTagger.load(b"run\tVERB\nrun\tNOUN\n")
        assert tagger("run", "") == "NOUN"

    def test_unknown_tag_rejected(self):
        with pytest.raises(DataError, match="line 1"):
            LexiconTagger.load(b"river\tNN\n")

    @pytest.mark.parametrize("data,message", [
        (b"river\tNOUN\nrun\n", "pos lexicon line 2: expected 2 columns"),
        (b"river\tNOUN\nrun\tVERB\n\n", "pos lexicon line 3: expected 2 columns"),
        (b"river\tNOUN\nrun\tVERB\n \tNOUN\n", "pos lexicon line 3: empty term"),
        (b"\tNOUN\n", "pos lexicon line 1: empty term"),
    ])
    def test_bad_line_refused_naming_it(self, data, message):
        with pytest.raises(DataError, match=f"^{message}$"):
            LexiconTagger.load(data)

    def test_purity(self):
        tagger = LexiconTagger({"cat": "NOUN"})
        assert tagger("cat", "a") == tagger("cat", "b") == "NOUN"


TAGGER_TOKENS = [b"", b" ", b"run", b"RUN", b"NOUN", b"VERB", b"X", b".", b"NN", b"\xff"]


class TestLexiconTaggerFuzz:
    """LexiconTagger.load either returns a tagger that answers in the tagset
    or raises DataError."""

    @settings(max_examples=300, deadline=None)
    @given(tsv_inputs(b"river\tNOUN\nrun\tVERB\nrun\tNOUN\n", TAGGER_TOKENS, 3))
    def test_arbitrary_and_mutated_bytes(self, data):
        try:
            tagger = LexiconTagger.load(data)
        except DataError:
            return
        for token in ("river", "run", "zzz"):
            assert tagger(token, "") in POS_TAGSET


#: Tokens that reach the schema reader's JSON, type and range checks.
JSON_TOKENS = [b"NaN", b"Infinity", b"-1", b"0", b"1e400", b"1" + b"0" * 30, b'"x"', b"[]", b"{}", b"null",
               b"true", b'""', b"1.5", b","]


@st.composite
def schema_inputs(draw) -> bytes:
    valid = sidecar_schema().to_json().encode("utf-8")
    choice = draw(st.integers(0, 3))
    if choice == 0:
        return draw(st.binary(max_size=200))
    if choice == 1:
        return draw(mutated(valid, b" ", JSON_TOKENS))
    return draw(mutated_json(valid))


class TestSchemaFromJsonFuzz:
    """FeatureSchema.from_json either returns a schema that extracts finite
    vectors of its width or raises DataError; extraction may only refuse with
    an LcpkitError (say, a family whose lexicon is missing)."""

    @settings(max_examples=500, deadline=None)
    @given(schema_inputs())
    def test_arbitrary_and_mutated_sidecars(self, data):
        try:
            schema = FeatureSchema.from_json(data)
        except DataError:
            return
        assert type(schema.config.trigram_min_count) is type(schema.config.trigram_max_vocab) is int
        probes = [inst("cat", "p1"), inst("zebra", "p2"), inst("ß", "p3")]
        registry = make_registry(prev=continuous_lexicon("prevalence", {"cat": 2.0}))
        try:
            X = extract_matrix(probes, schema, registry, LexiconTagger({"cat": "NOUN"}))
        except LcpkitError:
            return
        assert X.shape == (len(probes), len(schema.columns))
        assert np.all(np.isfinite(X))
