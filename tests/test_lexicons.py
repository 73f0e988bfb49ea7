import math
import re
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from lcpkit.errors import DataError
from lcpkit.lexicons import (
    LexiconRegistry,
    LexiconSpec,
    coverage,
    load_lexicon,
    lookup,
    merge_average,
    merge_binary_union,
)

from conftest import binary_lexicon, continuous_lexicon, lexicon_tsv, reference_load_lexicon, tsv_inputs


def cont_spec(name="test", **kwargs) -> LexiconSpec:
    return LexiconSpec(name=name, path=f"{name}.tsv", kind="continuous", **kwargs)


def bin_spec(name="labels", **kwargs) -> LexiconSpec:
    return LexiconSpec(name=name, path=f"{name}.tsv", kind="binary", **kwargs)


class TestLoad:
    def test_basic_load(self):
        lex = load_lexicon(cont_spec(), lexicon_tsv([("dog", 2.3), ("cat", 4.1)]))
        assert lex.entries == {"dog": 2.3, "cat": 4.1}
        assert lex.source_count == 2

    def test_duplicates_averaged(self):
        lex = load_lexicon(cont_spec(), lexicon_tsv([("dog", 2.3), ("dog", 3.7)]))
        assert lex.entries["dog"] == pytest.approx(3.0)

    def test_triple_duplicate_averaged(self):
        lex = load_lexicon(cont_spec(), lexicon_tsv([("dog", 1.0), ("dog", 2.0), ("dog", 6.0)]))
        assert lex.entries["dog"] == pytest.approx(3.0)

    def test_binary_any_one_wins(self):
        lex = load_lexicon(bin_spec(), lexicon_tsv([("arcane", 1), ("arcane", 0)]))
        assert lex.entries["arcane"] == 1.0

    def test_lowercase_normalization(self):
        lex = load_lexicon(cont_spec(), lexicon_tsv([("DOG", 2.3)]))
        assert lookup(lex, "dog") == 2.3
        assert lookup(lex, "DOG") == 2.3

    def test_lowercase_disabled(self):
        lex = load_lexicon(cont_spec(lowercase=False), lexicon_tsv([("DOG", 2.3)]))
        assert lookup(lex, "DOG") == 2.3
        assert lookup(lex, "dog") is None

    def test_non_numeric_value_names_line(self):
        with pytest.raises(DataError, match="line 2"):
            load_lexicon(cont_spec(), lexicon_tsv([("dog", 2.3), ("cat", "often")]))

    def test_binary_value_out_of_domain(self):
        with pytest.raises(DataError, match="0 or 1"):
            load_lexicon(bin_spec(), lexicon_tsv([("dog", 0.5)]))

    @pytest.mark.parametrize("cell", ["nan", "inf", "-Infinity"])
    def test_non_finite_value_names_lexicon_and_line(self, cell):
        with pytest.raises(DataError, match="lexicon 'test' line 2: non-finite value"):
            load_lexicon(cont_spec(), lexicon_tsv([("dog", 2.3), ("cat", cell)]))

    def test_overflowing_duplicates_rejected(self):
        with pytest.raises(DataError, match="lexicon 'test' line 2: the values of 'dog' overflow"):
            load_lexicon(cont_spec(), lexicon_tsv([("dog", "1e308"), ("dog", "1e308")]))

    def test_short_row_names_line(self):
        with pytest.raises(DataError, match="line 1"):
            load_lexicon(cont_spec(), b"loneword\n")

    def test_custom_columns(self):
        data = b"x\tdog\t9\t2.5\n"
        lex = load_lexicon(cont_spec(term_column=1, value_column=3), data)
        assert lex.entries == {"dog": 2.5}

    def test_skip_rows(self):
        data = b"Word\tRating\ndog\t2.0\n"
        lex = load_lexicon(cont_spec(skip_rows=1), data)
        assert lex.entries == {"dog": 2.0}

    def test_spec_rejects_equal_columns(self):
        with pytest.raises(ValueError):
            LexiconSpec(name="x", path="x.tsv", term_column=1, value_column=1)

    @pytest.mark.parametrize("field,value,message", [
        ("lowercase", "false", "config lowercase must be true or false, got 'false'"),
        ("lowercase", 0, "config lowercase must be true or false, got 0"),
        ("skip_rows", True, "config skip_rows must be an integer, got True"),
        ("term_column", 1.0, "config term_column must be an integer, got 1.0"),
        ("value_column", "1", "config value_column must be an integer, got '1'"),
        ("term_column", -1, "term_column must be >= 0, got -1"),
        ("value_column", -2, "value_column must be >= 0, got -2"),
        ("skip_rows", -1, "skip_rows must be >= 0, got -1"),
    ])
    def test_spec_rejects_values_the_reader_cannot_use(self, field, value, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            LexiconSpec(name="x", path="x.tsv", **{field: value})

    def test_spec_integers_may_be_any_integral(self):
        spec = LexiconSpec(name="x", path="x.tsv", value_column=np.int64(2), skip_rows=np.uint8(1))
        assert (type(spec.value_column), type(spec.skip_rows)) == (int, int)
        assert load_lexicon(spec, b"header\ndog\t9\t2.5\n").entries == {"dog": 2.5}

    def test_one_wide_row_costs_memory_in_proportion_to_the_file(self):
        """Rows are cut to the cells the term and value columns need, not
        padded to the widest row's width."""
        data = b"".join(b"w%d\t%d\n" % (i, i % 7) for i in range(5000)) + b"wide\t1" + b"\tx" * 1000
        tracemalloc.start()
        try:
            entries = load_lexicon(cont_spec(), data).entries
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(entries) == 5001
        assert peak <= 100 * len(data)

    def test_a_far_value_column_is_refused_before_any_cell_is_cut(self):
        """A file too narrow for the value column is refused at its first
        line without padding any row to that column. 200 rows keep the test
        small should rows be padded again: each padded row costs about
        ``8 * value_column`` bytes."""
        data = b"".join(b"w%d\t%d\n" % (i, i % 7) for i in range(200))
        tracemalloc.start()
        try:
            with pytest.raises(DataError, match=r"^lexicon 'test' line 1: expected at least 100001 columns, found 2$"):
                load_lexicon(cont_spec(value_column=10**5), data)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 100 * len(data)


class TestMergeAverage:
    def test_shared_terms_averaged(self):
        merged = merge_average(
            continuous_lexicon("a", {"cat": 3.0}), continuous_lexicon("b", {"cat": 5.0})
        )
        assert merged.entries["cat"] == 4.0

    def test_single_source_fallback(self):
        merged = merge_average(
            continuous_lexicon("a", {"zygote": 10.0}), continuous_lexicon("b", {"cat": 5.0})
        )
        assert merged.entries["zygote"] == 10.0
        assert merged.entries["cat"] == 5.0

    def test_idempotent_on_identical_inputs(self):
        lex = continuous_lexicon("a", {"cat": 3.0, "dog": 2.5})
        merged = merge_average(lex, lex)
        assert dict(merged.entries) == dict(lex.entries)

    def test_commutative(self):
        a = continuous_lexicon("a", {"cat": 3.0, "owl": 1.0})
        b = continuous_lexicon("b", {"cat": 5.0, "elk": 9.0})
        assert dict(merge_average(a, b).entries) == dict(merge_average(b, a).entries)

    def test_kind_mismatch_rejected(self):
        with pytest.raises(ValueError):
            merge_average(continuous_lexicon("a", {"x": 1.0}), binary_lexicon("b", {"x": 1.0}))

    def test_lowercase_mismatch_rejected(self):
        a = continuous_lexicon("a", {"x": 1.0})
        with pytest.raises(ValueError, match="matching normalization"):
            merge_average(a, replace(a, name="b", lowercase=False))


class TestMergeBinaryUnion:
    def test_conflict_resolves_to_one(self):
        merged = merge_binary_union(
            [binary_lexicon("a", {"w": 1.0}), binary_lexicon("b", {"w": 0.0})]
        )
        assert merged.entries["w"] == 1.0

    def test_disjoint_union_cardinality(self):
        a = binary_lexicon("a", {f"a{i}": 1.0 for i in range(10)})
        b = binary_lexicon("b", {f"b{i}": 0.0 for i in range(16)})
        assert merge_binary_union([a, b]).source_count == 26

    def test_three_disjoint_sources(self):
        sizes = (4, 7, 11)
        sources = [
            binary_lexicon(f"s{k}", {f"s{k}w{i}": 1.0 for i in range(n)})
            for k, n in enumerate(sizes)
        ]
        assert merge_binary_union(sources).source_count == sum(sizes)

    def test_values_stay_binary(self):
        merged = merge_binary_union(
            [binary_lexicon("a", {"w": 1.0, "v": 0.0}), binary_lexicon("b", {"v": 1.0})]
        )
        assert set(merged.entries.values()) <= {0.0, 1.0}

    def test_combined_prior_label_resource_scale(self):
        # two overlapping shared-task label sets plus a complexity lexicon,
        # combining to 26,088 distinct labeled words
        a = binary_lexicon("cwi_2016", {f"w{i}": float(i % 2) for i in range(12000)})
        b = binary_lexicon("cwi_2018", {f"w{i}": 1.0 for i in range(8000, 16000)})
        c = binary_lexicon("wcl", {f"v{i}": 1.0 for i in range(10088)})
        merged = merge_binary_union([a, b, c])
        assert merged.source_count == 26088

    def test_empty_sources_rejected(self):
        with pytest.raises(ValueError):
            merge_binary_union([])

    def test_non_binary_source_rejected(self):
        with pytest.raises(ValueError):
            merge_binary_union([continuous_lexicon("a", {"x": 2.0})])

    def test_lowercase_mismatch_rejected(self):
        a = binary_lexicon("a", {"x": 1.0})
        with pytest.raises(ValueError, match="matching normalization"):
            merge_binary_union([a, replace(a, name="b", lowercase=False)])


class TestRegistry:
    def test_repeated_name_rejected(self):
        registry = LexiconRegistry()
        registry.add(continuous_lexicon("aoa_1981", {"x": 1.0}))
        with pytest.raises(ValueError, match="duplicate lexicon name 'aoa_1981'"):
            registry.add(continuous_lexicon("aoa_1981", {"y": 2.0}))
        assert registry.get("aoa_1981").entries == {"x": 1.0}


class TestLookupCoverage:
    def test_missing_term_absent(self):
        lex = continuous_lexicon("a", {"dog": 2.3})
        assert lookup(lex, "unseen") is None

    def test_lookup_pure(self):
        lex = continuous_lexicon("a", {"dog": 2.3})
        assert lookup(lex, "dog") == lookup(lex, "dog") == 2.3

    def test_fraction_arithmetic(self):
        lex = continuous_lexicon("a", {"a": 1.0, "b": 2.0})
        stat = coverage(lex, {"a", "b", "c", "d"})
        assert stat.covered == 2
        assert stat.vocab_size == 4
        assert stat.fraction == 0.5

    def test_full_coverage(self):
        lex = continuous_lexicon("a", {"a": 1.0, "b": 2.0, "c": 3.0})
        assert coverage(lex, {"a", "b"}).fraction == 1.0

    def test_own_terms_fully_covered(self):
        lex = continuous_lexicon("a", {"a": 1.0, "b": 2.0})
        assert coverage(lex, set(lex.entries)).fraction == 1.0

    def test_empty_vocab_rejected(self):
        with pytest.raises(ValueError):
            coverage(continuous_lexicon("a", {"a": 1.0}), set())


#: Cells that reach the loader's column, term and value checks.
LEXICON_TOKENS = [b"", b" ", b"cat", b"0", b"1", b"2.5", b"-3", b"0.5", b"nan", b"inf", b"-inf", b"1e308",
                  b"x", b"\xff"]
VALID_LEXICON = lexicon_tsv([("cat", 1), ("Dog", 0), ("cat", 1), ("newt", 0)])
LEXICON_SPECS = [cont_spec(), bin_spec(), cont_spec(skip_rows=1, lowercase=False)]


class TestLoadLexiconFuzz:
    """load_lexicon either returns finite values (0/1 for a binary lexicon)
    or raises DataError."""

    @settings(max_examples=400, deadline=None)
    @given(tsv_inputs(VALID_LEXICON, LEXICON_TOKENS, 3), st.sampled_from(LEXICON_SPECS))
    def test_arbitrary_and_mutated_bytes(self, data, spec):
        try:
            lex = load_lexicon(spec, data)
        except DataError:
            return
        assert all(math.isfinite(v) for v in lex.entries.values())
        if spec.kind == "binary":
            assert set(lex.entries.values()) <= {0.0, 1.0}


def assert_loads_as_reference(spec, data) -> dict:
    """load_lexicon gives the reference's keys in its order with bit-identical
    values, or raises the reference's DataError word for word."""
    try:
        expected = reference_load_lexicon(spec, data)
    except DataError as exc:
        with pytest.raises(DataError) as got:
            load_lexicon(spec, data)
        assert str(got.value) == str(exc)
        return {}
    entries = load_lexicon(spec, data).entries
    assert [(t, v.hex()) for t, v in entries.items()] == [(t, v.hex()) for t, v in expected.items()]
    return expected


#: ``LEXICON_TOKENS`` plus a negative zero, case variants of one word, an
#: upper-case number, non-ASCII words to lower (a final sigma, dotted I,
#: the Kelvin sign), a value that ``str.strip`` and ``float`` trim
#: differently (U+001F) and cells holding line breaks that ``splitlines``
#: cuts at.
REFERENCE_TOKENS = LEXICON_TOKENS + [
    b"-0", b"Dog", b"dog", b"1E2", b"\xc3\x89t\xc3\xa9", "ΟΔΟΣ".encode(), "Σ".encode(), "İ".encode(),
    "\u212a".encode(), b"1\x1f", b" 2\r", b"a\xc2\x85b",
]


#: Rows of two, three and four cells, with one term on three rows and one
#: on two.
RAGGED_REPEATS = b"dog\t1\tx\ncat\t0\ndog\t0\ta\tb\ncat\t1\nowl\t0\ndog\t1\n"


class TestLoadMatchesReference:
    """The column-wise load_lexicon agrees with the row-wise reference in
    conftest on every input: same entries bit for bit, or the same error."""

    @settings(max_examples=400, deadline=None)
    @given(
        tsv_inputs(VALID_LEXICON, REFERENCE_TOKENS, 4),
        st.sampled_from(LEXICON_SPECS + [cont_spec(term_column=2, value_column=0)]),
    )
    def test_arbitrary_and_mutated_bytes(self, data, spec):
        assert_loads_as_reference(spec, data)

    @pytest.mark.parametrize(
        "spec, data, keys",
        [
            (cont_spec(), b"Dog\t1\ncat\t0\ndog\t0\nDOG\t1\n", ["dog", "cat"]),
            (bin_spec(), b"Dog\t1\ncat\t0\ndog\t0\nDOG\t1\n", ["dog", "cat"]),
            (cont_spec(skip_rows=1, lowercase=False), b"Word\tValue\nDog\t1\ndog\t0\n", ["Dog", "dog"]),
        ],
        ids=["continuous", "binary", "cased"],
    )
    def test_lowercase_collision(self, spec, data, keys):
        assert list(assert_loads_as_reference(spec, data)) == keys

    def test_non_ascii_terms_lowered(self):
        data = "ΟΔΟΣ\t1\nΣ\t2\nΣΑ Σ\t1E1\nİ\t3\n".encode()
        entries = assert_loads_as_reference(cont_spec(), data)
        assert entries == {"οδος": 1.0, "σ": 2.0, "σα σ": 10.0, "i\u0307": 3.0}
        with pytest.raises(DataError, match="line 2: non-finite value 'INFINITY'"):
            load_lexicon(cont_spec(), "\u212a\t1\n\u212a\tINFINITY\n".encode())

    @pytest.mark.parametrize(
        "spec, data, expected",
        [
            (cont_spec(), b"dog\t2.5\tx\ncat\t1\nowl\t3\ta\tb\tc\ndog\t0.5\n", {"dog": 1.5, "cat": 1.0, "owl": 3.0}),
            (cont_spec(), RAGGED_REPEATS, {"dog": 2 / 3, "cat": 0.5, "owl": 0.0}),
            (bin_spec(), RAGGED_REPEATS, {"dog": 1.0, "cat": 1.0, "owl": 0.0}),
        ],
        ids=["continuous", "repeats", "repeats-binary"],
    )
    def test_ragged_rows_with_extra_columns(self, spec, data, expected):
        assert assert_loads_as_reference(spec, data) == expected

    def test_ragged_rows_custom_columns(self):
        data = b"2.5\tx\tdog\n1\ty\tcat\tz\n"
        spec = cont_spec(term_column=2, value_column=0)
        assert assert_loads_as_reference(spec, data) == {"dog": 2.5, "cat": 1.0}

    def test_header_row_skipped(self):
        data = b"Word\tRating\tMore\ndog\t2.0\n"
        assert assert_loads_as_reference(cont_spec(skip_rows=1), data) == {"dog": 2.0}

    @pytest.mark.parametrize("spec", [cont_spec(), bin_spec()], ids=["continuous", "binary"])
    def test_negative_zero_loads_as_zero(self, spec):
        entries = assert_loads_as_reference(spec, b"dog\t-0\ncat\t-0.0\ncat\t0\n")
        assert [v.hex() for v in entries.values()] == [(0.0).hex()] * 2

    def test_duplicate_sum_overflow_names_its_line(self):
        data = b"dog\t1e308\ncat\t1\ndog\t1e308\ndog\t-1e308\nowl\tx\n"
        assert_loads_as_reference(cont_spec(), data)
        with pytest.raises(DataError, match="lexicon 'test' line 3: the values of 'dog' overflow"):
            load_lexicon(cont_spec(), data)

    def test_first_bad_line_is_named(self):
        data = b"dog\t1\ncat\t2\n \t3\nowl\t4\nshort\n"
        assert_loads_as_reference(cont_spec(), data)
        with pytest.raises(DataError, match="lexicon 'test' line 3: empty term"):
            load_lexicon(cont_spec(), data)

    @pytest.mark.parametrize("spec", LEXICON_SPECS, ids=["continuous", "binary", "header-cased"])
    def test_empty_file(self, spec):
        assert assert_loads_as_reference(spec, b"") == {}
        assert load_lexicon(spec, b"").source_count == 0
