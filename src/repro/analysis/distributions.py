"""Distribution utilities for the figure reproductions.

The degree figures (8 and 11) plot frequency/degree series, and the
overhead figure (5) measures how evenly load spreads.  These helpers
produce those series and that measure from raw samples.
"""

from __future__ import annotations

from typing import Dict, Sequence

import numpy as np

__all__ = ["frequency_histogram", "gini"]


def frequency_histogram(samples: Sequence[int]) -> Dict[int, int]:
    """value → count, sorted by value (the raw Fig. 8 series)."""
    hist: Dict[int, int] = {}
    for s in samples:
        hist[int(s)] = hist.get(int(s), 0) + 1
    return dict(sorted(hist.items()))


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
