"""Time-series recording for long simulations.

The churn experiments report metrics as time series (Fig. 12's three
panels).  :class:`TimeSeries` is the small building block they share with
the examples: named series of (time, value) samples with tabular export compatible with
:mod:`repro.experiments.reporting`.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from typing import Dict, List, Optional, Sequence, Tuple

__all__ = ["TimeSeries"]


class TimeSeries:
    """Named series of time-stamped samples.

    Samples must arrive in non-decreasing time order per series (the
    simulation clock is monotone), which lets :meth:`to_rows` find each
    timestamp's samples by bisection.
    """

    def __init__(self) -> None:
        self._times: Dict[str, List[float]] = {}
        self._values: Dict[str, List[float]] = {}

    # ------------------------------------------------------------------
    def record(self, series: str, time: float, value: float) -> None:
        """Append one sample."""
        ts = self._times.setdefault(series, [])
        if ts and time < ts[-1]:
            raise ValueError(
                f"samples must be time-ordered: {time} < {ts[-1]} in {series!r}"
            )
        ts.append(float(time))
        self._values.setdefault(series, []).append(float(value))

    # ------------------------------------------------------------------
    def series(self, name: str) -> List[Tuple[float, float]]:
        """All samples of one series as (time, value) pairs."""
        return list(zip(self._times.get(name, ()), self._values.get(name, ())))

    def names(self) -> List[str]:
        return sorted(self._times)

    def __len__(self) -> int:
        return sum(len(v) for v in self._values.values())

    def latest_time(self, name: str) -> Optional[float]:
        """The newest sample time of one series (None when empty) — what
        a recorder checks before appending a sample whose clock may have
        rewound (e.g. a run-level probe series fed by per-trial clocks)."""
        times = self._times.get(name)
        return times[-1] if times else None

    # ------------------------------------------------------------------
    def to_rows(
        self, names: Optional[Sequence[str]] = None, time_key: str = "time"
    ) -> List[Dict]:
        """Align series on their union of timestamps into row dicts
        (missing samples render as None) — the shape
        :func:`repro.experiments.reporting.format_table` consumes."""
        if names is None:
            names = self.names()
        all_times = sorted({t for n in names for t in self._times.get(n, ())})
        rows: List[Dict] = []
        for t in all_times:
            # A series may hold several samples at the same instant (e.g.
            # repeated probes within one cycle); emit one row per
            # occurrence, aligning the k-th duplicate of each series.
            spans: Dict[str, tuple] = {}
            occurrences = 1
            for n in names:
                ts = self._times.get(n, [])
                lo, hi = bisect_left(ts, t), bisect_right(ts, t)
                spans[n] = (lo, hi)
                occurrences = max(occurrences, hi - lo)
            for k in range(occurrences):
                row: Dict = {time_key: t}
                for n in names:
                    lo, hi = spans[n]
                    row[n] = self._values[n][lo + k] if lo + k < hi else None
                rows.append(row)
        return rows
