"""Distribution utilities for the figure reproductions.

The degree figures (8 and 11) plot log-log frequency/degree series, the
overhead figure (5) plots fraction-of-nodes histograms.  These helpers
produce exactly those series from raw samples.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

import numpy as np

__all__ = ["frequency_histogram", "log_binned_histogram", "gini"]


def frequency_histogram(samples: Sequence[int]) -> Dict[int, int]:
    """value → count, sorted by value (the raw Fig. 8 series)."""
    hist: Dict[int, int] = {}
    for s in samples:
        hist[int(s)] = hist.get(int(s), 0) + 1
    return dict(sorted(hist.items()))


def log_binned_histogram(
    samples: Sequence[float], n_bins: int = 20
) -> Tuple[np.ndarray, np.ndarray]:
    """Logarithmically binned density — the standard way to render a
    power-law tail without noise at high degrees.

    Returns (bin centers, per-bin density normalised by bin width).
    Zero samples are dropped (log bins start at the smallest positive
    value).
    """
    xs = np.asarray([s for s in samples if s > 0], dtype=float)
    if xs.size == 0:
        return np.array([]), np.array([])
    lo, hi = xs.min(), xs.max()
    if lo == hi:
        return np.array([lo]), np.array([float(xs.size)])
    edges = np.logspace(np.log10(lo), np.log10(hi), n_bins + 1)
    counts, edges = np.histogram(xs, bins=edges)
    widths = np.diff(edges)
    centers = np.sqrt(edges[:-1] * edges[1:])
    density = counts / widths
    mask = counts > 0
    return centers[mask], density[mask]


def gini(samples: Sequence[float]) -> float:
    """Gini coefficient of a non-negative sample — used to quantify how
    evenly relay load spreads over nodes (the Fig. 5 claim in one number).
    """
    xs = np.sort(np.asarray(samples, dtype=float))
    if xs.size == 0:
        return 0.0
    if np.any(xs < 0):
        raise ValueError("gini requires non-negative samples")
    total = xs.sum()
    if total == 0:
        return 0.0
    n = xs.size
    idx = np.arange(1, n + 1)
    return float((2.0 * np.sum(idx * xs) / (n * total)) - (n + 1.0) / n)
