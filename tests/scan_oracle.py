"""Exhaustive scan statistics and the mean-count line fit, for tests only.

No code in the package reads this module. ``summarize`` folds the rows
``analysis.scan_rows`` enumerates one N at a time, so it is the reference
that the closed-form ``analysis.scan`` is checked against; ``mean_fit``
is the least-squares trend of acceptance criterion C6.
"""

from __future__ import annotations

from typing import Iterable

import numpy as np

from superposer.analysis import NSummary, ScanRow, ScanStats


def summarize(rows: Iterable[ScanRow]) -> ScanStats:
    """Fold scan rows into per-n max, mean, and count histogram."""
    totals: dict[int, int] = {}
    sizes: dict[int, int] = {}
    maxima: dict[int, int] = {}
    histograms: dict[int, dict[int, int]] = {}
    for row in rows:
        totals[row.n] = totals.get(row.n, 0) + row.cnot
        sizes[row.n] = sizes.get(row.n, 0) + 1
        maxima[row.n] = max(maxima.get(row.n, 0), row.cnot)
        hist = histograms.setdefault(row.n, {})
        hist[row.cnot] = hist.get(row.cnot, 0) + 1
    summaries = tuple(
        NSummary(
            n=n,
            max_count=maxima[n],
            mean_count=totals[n] / sizes[n],
            histogram=dict(sorted(histograms[n].items())),
        )
        for n in sorted(sizes)
    )
    return ScanStats(per_n=summaries)


def mean_fit(stats: ScanStats, n_min: int = 3) -> tuple[float, float]:
    """Least-squares line through (n, mean count) for n >= n_min.

    Returns (slope, intercept). The mean grows linearly in n, so two
    coefficients describe the whole trend.
    """
    points = [(s.n, s.mean_count) for s in stats.per_n if s.n >= n_min]
    if len(points) < 2:
        raise ValueError(f"need at least two widths >= {n_min} to fit a line")
    ns = np.array([p[0] for p in points], dtype=float)
    means = np.array([p[1] for p in points], dtype=float)
    slope, intercept = np.polyfit(ns, means, 1)
    return float(slope), float(intercept)
