"""Regression metrics and report rendering.

All four scores (MAE, MSE, Pearson R, Spearman rho) are computed from their
definitions. Correlations are undefined (None) when either side has zero
variance; reports render that as an em dash rather than inventing a number.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass

import numpy as np


def _as_pair(pred, gold) -> tuple[np.ndarray, np.ndarray]:
    p = np.asarray(pred, dtype=np.float64).reshape(-1)
    g = np.asarray(gold, dtype=np.float64).reshape(-1)
    if p.size != g.size:
        raise ValueError(f"length mismatch: {p.size} predictions vs {g.size} gold values")
    if p.size == 0:
        raise ValueError("cannot score empty vectors")
    if not (np.all(np.isfinite(p)) and np.all(np.isfinite(g))):
        raise ValueError("inputs contain non-finite values")
    return p, g


def mae(pred, gold) -> float:
    """Mean absolute error."""
    p, g = _as_pair(pred, gold)
    return float(np.mean(np.abs(p - g)))


def mse(pred, gold) -> float:
    """Mean squared error."""
    p, g = _as_pair(pred, gold)
    return float(np.mean((p - g) ** 2))


def pearson(x, y) -> float | None:
    """Pearson correlation, or None when either side has zero variance."""
    a, b = _as_pair(x, y)
    if a.size < 2:
        raise ValueError("pearson requires at least 2 points")
    # a constant side is told from its values: a mean that rounds away from
    # them would leave equal nonzero deviations
    if np.all(a == a[0]) or np.all(b == b[0]):
        return None
    # Each side is scaled so its largest magnitude lies in [0.5, 1): no sum
    # overflows, and no sum of squares or product of two falls to 0. A power
    # of two rounds nothing, so r keeps its bits.
    a, b = (v - v.mean() for v in (np.ldexp(v, -np.frexp(np.max(np.abs(v)))[1]) for v in (a, b)))
    ssa = float(np.sum(a * a))
    ssb = float(np.sum(b * b))
    r = float(np.sum(a * b)) / float(np.sqrt(ssa * ssb))
    return min(1.0, max(-1.0, r))


def rank_average(x) -> np.ndarray:
    """Fractional 1-based ranks of finite values (``spearman`` refuses any
    other); ties get the mean of their covered positions."""
    a = np.asarray(x, dtype=np.float64).reshape(-1)
    _, value_of, counts = np.unique(a, return_inverse=True, return_counts=True)
    # a value covering positions last - count + 1 .. last has their mean rank
    return (np.cumsum(counts) - (counts - 1) / 2.0)[value_of]


def spearman(x, y) -> float | None:
    """Spearman rank correlation: Pearson on average-tie fractional ranks."""
    a, b = _as_pair(x, y)
    if a.size < 2:
        raise ValueError("spearman requires at least 2 points")
    return pearson(rank_average(a), rank_average(b))


@dataclass(frozen=True)
class MetricsReport:
    n: int
    mae: float
    mse: float
    pearson_r: float | None
    spearman_rho: float | None


def evaluate(pred, gold) -> MetricsReport:
    """All four metrics on one prediction/gold pair."""
    p, g = _as_pair(pred, gold)
    return MetricsReport(
        n=int(p.size),
        mae=mae(p, g),
        mse=mse(p, g),
        pearson_r=pearson(p, g),
        spearman_rho=spearman(p, g),
    )


@dataclass(frozen=True)
class AblationRow:
    label: str
    report: MetricsReport


def format_metric(v: float | None) -> str:
    return "—" if v is None else f"{v:.3f}"


def render_report(rows: list[AblationRow], format: str = "markdown") -> str:
    """Render ablation rows as a markdown or CSV table (R, rho, MAE, MSE)."""
    if not rows:
        raise ValueError("cannot render an empty report")
    cells = []
    for row in rows:
        r = row.report
        cells.append([row.label, *map(format_metric, (r.pearson_r, r.spearman_rho, r.mae, r.mse))])
    if format == "markdown":
        lines = ["| Label | R | ρ | MAE | MSE |", "| --- | --- | --- | --- | --- |"]
        lines.extend("| " + " | ".join(row) + " |" for row in cells)
        return "\n".join(lines) + "\n"
    if format == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(["label", "r", "rho", "mae", "mse"])
        writer.writerows(cells)
        return buf.getvalue()
    raise ValueError(f"unknown report format {format!r}")
