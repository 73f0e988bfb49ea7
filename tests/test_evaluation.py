import math
import random
import warnings

import numpy as np
import pytest
from scipy import stats

from lcpkit.evaluation import (
    AblationRow,
    MetricsReport,
    evaluate,
    mae,
    mse,
    pearson,
    rank_average,
    render_report,
    spearman,
)


class TestErrors:
    def test_identity(self):
        v = [0.1, 0.4, 0.9]
        assert mae(v, v) == 0.0
        assert mse(v, v) == 0.0

    def test_hand_values(self):
        assert mae([0.1, 0.2], [0.2, 0.4]) == pytest.approx(0.15, abs=1e-15)
        assert mse([0.1, 0.2], [0.2, 0.4]) == pytest.approx(0.025, abs=1e-15)

    def test_residual_scaling(self):
        pred = np.array([0.1, 0.5, 0.2])
        gold = np.array([0.3, 0.1, 0.2])
        doubled = gold + 2 * (pred - gold)
        assert mae(doubled, gold) == pytest.approx(2 * mae(pred, gold))
        assert mse(doubled, gold) == pytest.approx(4 * mse(pred, gold))

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            mae([0.1], [0.1, 0.2])

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            mse([], [])

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError):
            mae([math.nan], [0.0])

    def test_error_ordering(self):
        rng = np.random.default_rng(4)
        for _ in range(50):
            n = rng.integers(1, 40)
            pred = rng.random(n)
            gold = rng.random(n)
            a = mae(pred, gold)
            s = math.sqrt(mse(pred, gold))
            mx = float(np.max(np.abs(pred - gold)))
            assert a <= s + 1e-12 <= mx + 1e-12


class TestPearson:
    def test_perfect_linear(self):
        assert pearson([1, 2, 3], [2, 4, 6]) == pytest.approx(1.0)

    def test_perfect_anti_linear(self):
        assert pearson([1, 2, 3], [3, 2, 1]) == pytest.approx(-1.0)

    def test_hand_value(self):
        assert pearson([1, 2, 3, 4], [1, 3, 2, 4]) == pytest.approx(0.8, abs=1e-15)

    def test_zero_variance_undefined(self):
        assert pearson([1, 1, 1], [1, 2, 3]) is None
        assert pearson([1, 2, 3], [5, 5, 5]) is None

    @pytest.mark.parametrize(
        "x,y", [([0.1] * 3, [0, 1, 2]), ([0.7] * 7, range(7)), ([1 / 3] * 10, range(10)), ([0.1] * 4, range(4))]
    )
    def test_constant_side_whose_mean_rounds_away_is_undefined(self, x, y):
        # the mean of the constant side is not its value, so its deviations
        # are equal and nonzero
        assert pearson(x, y) is None
        assert pearson(y, x) is None

    def test_too_short_rejected(self):
        with pytest.raises(ValueError):
            pearson([1.0], [2.0])

    def test_affine_invariance(self):
        rng = np.random.default_rng(7)
        x = rng.random(30)
        y = rng.random(30)
        base = pearson(x, y)
        assert pearson(3.0 * x + 10.0, y) == pytest.approx(base, abs=1e-12)
        assert pearson(x, 0.25 * y - 2.0) == pytest.approx(base, abs=1e-12)

    def test_negation_flips_sign(self):
        rng = np.random.default_rng(8)
        x = rng.random(20)
        y = rng.random(20)
        assert pearson(-x, y) == pytest.approx(-pearson(x, y), abs=1e-12)

    @pytest.mark.parametrize("scale", [1e-85, 1e-120, 1e100, 1e150, 1e160, 1e300])
    def test_tiny_or_huge_values_keep_their_correlation(self, scale):
        """The unscaled sums of squares, or their product, would underflow to
        0 or overflow to inf; r is still scipy's."""
        x = np.array([0.1, 0.4, 0.35, 0.8, 0.05]) * scale
        y = np.array([0.2, 0.5, 0.3, 0.9, 0.0]) * scale
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            r = pearson(x, y)
        assert r == pytest.approx(stats.pearsonr(x, y)[0], abs=1e-12)


class TestSpearman:
    def test_monotone_is_one(self):
        assert spearman([1, 2, 3, 10], [0.1, 0.2, 0.5, 0.9]) == pytest.approx(1.0)

    def test_hand_value(self):
        assert spearman([1, 2, 3, 4], [1, 3, 2, 4]) == pytest.approx(0.8, abs=1e-15)

    def test_tie_case(self):
        assert rank_average([1, 1, 2]).tolist() == [1.5, 1.5, 3.0]
        assert spearman([1, 1, 2], [5, 5, 9]) == pytest.approx(1.0)

    def test_matches_scipy_with_ties(self):
        rng = random.Random(123)
        for _ in range(60):
            n = rng.randint(2, 60)
            x = [rng.choice([0.1, 0.2, 0.3, rng.random()]) for _ in range(n)]
            y = [rng.choice([0.1, 0.5, rng.random()]) for _ in range(n)]
            ours = spearman(x, y)
            reference = stats.spearmanr(x, y).statistic
            if ours is None:
                assert math.isnan(reference)
            else:
                assert ours == pytest.approx(reference, abs=1e-10)

    def test_ranks_match_scipy(self):
        rng = random.Random(5)
        inputs = [[0.25] * 7, [0.0, -0.0, 1.0, -0.0, -1.0]]
        for _ in range(40):
            n = rng.randint(1, 50)
            inputs.append([rng.choice([1, 2, 3, 4, rng.random()]) for _ in range(n)])
        for x in inputs:
            assert rank_average(x).tolist() == stats.rankdata(x, method="average").tolist()

    def test_too_short_rejected(self):
        with pytest.raises(ValueError, match="spearman requires at least 2 points"):
            spearman([1.0], [2.0])

    def test_negation_flips_sign(self):
        x = [0.3, 0.9, 0.1, 0.5]
        y = [0.2, 0.8, 0.4, 0.6]
        assert spearman([-v for v in x], y) == pytest.approx(-spearman(x, y), abs=1e-12)


class TestEvaluate:
    def test_identity_pattern(self):
        report = evaluate([0.1, 0.4, 0.9], [0.1, 0.4, 0.9])
        assert report.mae == 0.0
        assert report.mse == 0.0
        assert report.pearson_r == pytest.approx(1.0)
        assert report.spearman_rho == pytest.approx(1.0)
        assert report.n == 3

    def test_undefined_correlations_on_constant_gold(self):
        report = evaluate([0.1, 0.4], [0.5, 0.5])
        assert report.pearson_r is None
        assert report.spearman_rho is None


class TestRender:
    def rows(self):
        return [
            AblationRow(
                "Baseline Features",
                MetricsReport(n=100, mae=0.075, mse=0.010, pearson_r=0.704, spearman_rho=0.662),
            )
        ]

    def test_markdown_layout(self):
        text = render_report(self.rows(), "markdown")
        lines = text.splitlines()
        assert lines[0] == "| Label | R | ρ | MAE | MSE |"
        assert lines[2] == "| Baseline Features | 0.704 | 0.662 | 0.075 | 0.010 |"

    def test_csv_layout(self):
        text = render_report(self.rows(), "csv")
        assert text == "label,r,rho,mae,mse\nBaseline Features,0.704,0.662,0.075,0.010\n"

    def test_undefined_rendered_as_dash(self):
        rows = [AblationRow("x", MetricsReport(2, 0.0, 0.0, None, None))]
        assert "—" in render_report(rows, "markdown")

    def test_deterministic(self):
        assert render_report(self.rows(), "markdown") == render_report(self.rows(), "markdown")

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            render_report([], "markdown")

    def test_unknown_format_rejected(self):
        with pytest.raises(ValueError):
            render_report(self.rows(), "xml")
