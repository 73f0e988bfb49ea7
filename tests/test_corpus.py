import math

import pytest
from hypothesis import given, settings, strategies as st

from lcpkit.corpus import (
    BandLabel,
    Instance,
    band_of,
    parse_dataset,
    split_train_dev,
)
from lcpkit.errors import DataError

from conftest import dataset_tsv, make_instances, tsv_inputs


class TestParse:
    def test_field_mapping(self, tiny_instances):
        inst = tiny_instances[0]
        assert inst.id == "a1"
        assert inst.subcorpus == "bible"
        assert inst.token == "river"
        assert inst.gold == 0.10
        assert "seven cattle" in inst.sentence

    def test_preserves_file_order(self, tiny_instances):
        assert [i.id for i in tiny_instances] == ["a1", "a2", "a3", "a4", "a5", "a6"]

    def test_full_scale_row_count(self):
        rows = [(f"r{k}", "bible", f"sentence {k} with w{k}", f"w{k}", "0.5") for k in range(7662)]
        assert len(parse_dataset(dataset_tsv(rows), has_gold=True)) == 7662

    def test_empty_complexity_gives_no_gold(self):
        data = dataset_tsv([("x1", "bible", "a cat sat", "cat", "")])
        assert parse_dataset(data, has_gold=True)[0].gold is None

    def test_unlabeled_without_column(self):
        data = dataset_tsv([("x1", "bible", "a cat sat", "cat")], with_gold_column=False)
        assert parse_dataset(data, has_gold=False)[0].gold is None

    def test_gold_out_of_range_names_id(self):
        data = dataset_tsv([("bad1", "bible", "a cat sat", "cat", "1.2")])
        with pytest.raises(DataError, match="bad1"):
            parse_dataset(data, has_gold=True)

    @pytest.mark.parametrize("gold", ["1.5", "nan"])
    def test_gold_out_of_range_names_line(self, gold):
        rows = [("x1", "bible", "a cat sat", "cat", "0.5"), ("x2", "bible", "a dog sat", "dog", gold)]
        with pytest.raises(DataError, match=r"^line 3: id 'x2': complexity"):
            parse_dataset(dataset_tsv(rows), has_gold=True)

    def test_wrong_column_count_names_line(self):
        data = b"id\tcorpus\tsentence\ttoken\tcomplexity\nx1\tbible\tonly three\n"
        with pytest.raises(DataError, match="line 2"):
            parse_dataset(data, has_gold=True)

    def test_blank_token_names_line(self):
        data = dataset_tsv([("x1", "bible", "a cat sat", " ", "0.5")])
        with pytest.raises(DataError, match=r"^line 2: id 'x1' has an empty token$"):
            parse_dataset(data, has_gold=True)

    def test_duplicate_id_rejected(self):
        rows = [("d1", "bible", "a cat sat", "cat", "0.1"), ("d1", "bible", "a dog sat", "dog", "0.2")]
        with pytest.raises(DataError, match="duplicate id"):
            parse_dataset(dataset_tsv(rows), has_gold=True)

    def test_non_numeric_gold_rejected(self):
        data = dataset_tsv([("n1", "bible", "a cat sat", "cat", "high")])
        with pytest.raises(DataError, match="non-numeric"):
            parse_dataset(data, has_gold=True)

    def test_bad_header_rejected(self):
        with pytest.raises(DataError, match="line 1"):
            parse_dataset(b"word\tscore\ncat\t0.1\n", has_gold=True)

    def test_gold_value_with_has_gold_false_rejected(self):
        data = dataset_tsv([("x1", "bible", "a cat sat", "cat", "0.4")])
        with pytest.raises(DataError, match="has a complexity value, but this input must be unlabeled"):
            parse_dataset(data, has_gold=False)

    def test_crlf_accepted(self, tiny_corpus_bytes):
        crlf = tiny_corpus_bytes.replace(b"\n", b"\r\n")
        assert len(parse_dataset(crlf, has_gold=True)) == 6

    @pytest.mark.parametrize("mark", ["\r", "\u2028", "\u2029", "\x85", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e"])
    @pytest.mark.parametrize("end", ["\n", "\r\n"])
    def test_rows_end_only_at_lf_or_crlf(self, mark, end):
        """A sentence may hold any other line break str.splitlines knows,
        and a later error names the line counted by LF."""
        sentence = f"a cat{mark}sat"
        rows = [("x1", "bible", sentence, "cat", "0.5"), ("x2", "bible", "a dog sat", "dog", "0.25")]
        data = dataset_tsv(rows).decode().replace("\n", end).encode()
        parsed = parse_dataset(data, has_gold=True)
        assert [i.sentence for i in parsed] == [sentence, "a dog sat"]
        assert [i.gold for i in parsed] == [0.5, 0.25]
        bad = data + f"x3{end}".encode()
        with pytest.raises(DataError, match=r"^line 4: expected 5 columns, found 1$"):
            parse_dataset(bad, has_gold=True)

    def test_token_not_in_sentence_warns_but_parses(self, caplog):
        data = dataset_tsv([("w1", "bible", "a cat sat", "Dog", "0.1")])
        with caplog.at_level("WARNING"):
            instances = parse_dataset(data, has_gold=True)
        assert len(instances) == 1
        assert any("w1" in rec.getMessage() for rec in caplog.records)

    def test_round_trip(self, tiny_instances):
        rows = [(i.id, i.subcorpus, i.sentence, i.token, repr(i.gold)) for i in tiny_instances]
        assert parse_dataset(dataset_tsv(rows), has_gold=True) == tiny_instances

    @given(st.floats(min_value=0, max_value=1, allow_nan=False))
    def test_round_trip_gold_values(self, gold):
        data = dataset_tsv([("g1", "bible", "the word tok here", "tok", repr(gold))])
        assert parse_dataset(data, has_gold=True)[0].gold == gold


class TestBands:
    @pytest.mark.parametrize(
        "score,band",
        [
            (0.0, BandLabel.VERY_EASY),
            (0.1, BandLabel.EASY),
            (0.25, BandLabel.NEUTRAL),
            (0.30, BandLabel.NEUTRAL),
            (0.5, BandLabel.DIFFICULT),
            (0.74, BandLabel.DIFFICULT),
            (0.75, BandLabel.VERY_DIFFICULT),
            (1.0, BandLabel.VERY_DIFFICULT),
        ],
    )
    def test_boundaries(self, score, band):
        assert band_of(score) is band

    @pytest.mark.parametrize("score", [-0.01, 1.01, float("nan"), float("inf")])
    def test_out_of_range_rejected(self, score):
        with pytest.raises(ValueError):
            band_of(score)

    @given(st.floats(min_value=0, max_value=1, allow_nan=False))
    def test_total_mapping(self, score):
        assert band_of(score) in BandLabel


class TestSplit:
    def test_sizes_small(self):
        split = split_train_dev(make_instances(10, seed=1), 0.2, seed=7)
        assert len(split.train) == 8 and len(split.dev) == 2

    def test_sizes_full_scale(self):
        split = split_train_dev(make_instances(7662, seed=2), 0.2, seed=0)
        assert len(split.dev) == 1532
        assert len(split.train) == 6130

    def test_deterministic(self):
        instances = make_instances(50, seed=3)
        a = split_train_dev(instances, 0.3, seed=11)
        b = split_train_dev(instances, 0.3, seed=11)
        assert [i.id for i in a.dev] == [i.id for i in b.dev]
        assert [i.id for i in a.train] == [i.id for i in b.train]

    def test_seed_changes_partition(self):
        instances = make_instances(50, seed=3)
        a = split_train_dev(instances, 0.3, seed=11)
        b = split_train_dev(instances, 0.3, seed=12)
        assert {i.id for i in a.dev} != {i.id for i in b.dev}

    def test_partition_is_exact(self):
        instances = make_instances(23, seed=4)
        split = split_train_dev(instances, 0.25, seed=5)
        train_ids = {i.id for i in split.train}
        dev_ids = {i.id for i in split.dev}
        assert not train_ids & dev_ids
        assert train_ids | dev_ids == {i.id for i in instances}

    def test_too_small_rejected(self):
        with pytest.raises(DataError):
            split_train_dev(make_instances(1, seed=0), 0.2, seed=0)

    @pytest.mark.parametrize("fraction", [0.0, 1.0, -0.1])
    def test_bad_fraction_rejected(self, fraction):
        with pytest.raises(ValueError):
            split_train_dev(make_instances(5, seed=0), fraction, seed=0)

    def test_rounded_dev_size(self):
        # round half up: 0.25 * 10 = 2.5 -> 3
        split = split_train_dev(make_instances(10, seed=1), 0.25, seed=0)
        assert len(split.dev) == 3


class TestInstance:
    def test_empty_token_rejected(self):
        with pytest.raises(ValueError):
            Instance("x", "bible", "a sentence", "   ")

    def test_gold_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            Instance("x", "bible", "a cat", "cat", 1.5)

    def test_nan_gold_rejected(self):
        with pytest.raises(ValueError):
            Instance("x", "bible", "a cat", "cat", math.nan)


#: Cells that reach the parser's header, column, id and gold checks.
DATASET_TOKENS = [b"", b" ", b"a1", b"cat", b"0", b"1", b"0.5", b"-0.1", b"1.5", b"nan", b"inf", b"x",
                  b"complexity", b"\xff", b"\r"]
DATASET_HEADER = b"id\tcorpus\tsentence\ttoken\tcomplexity\n"
VALID_DATASET = dataset_tsv([
    ("a1", "bible", "a cat sat", "cat", "0.25"),
    ("a2", "biomed", "the enzyme", "enzyme", ""),
    ("a3", "europarl", "a vote", "vote", "1"),
])


class TestParseDatasetFuzz:
    """parse_dataset either returns valid instances or raises DataError."""

    @settings(max_examples=400, deadline=None)
    @given(tsv_inputs(VALID_DATASET, DATASET_TOKENS, 6, head=DATASET_HEADER), st.booleans())
    def test_arbitrary_and_mutated_bytes(self, data, has_gold):
        try:
            instances = parse_dataset(data, has_gold=has_gold)
        except DataError:
            return
        assert len({inst.id for inst in instances}) == len(instances)
        for inst in instances:
            assert inst.token.strip()
            assert inst.gold is None or (has_gold and 0.0 <= inst.gold <= 1.0)
