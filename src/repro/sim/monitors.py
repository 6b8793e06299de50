"""Time-series recording for long simulations.

The churn experiments report metrics as time series (Fig. 12's three
panels).  :class:`TimeSeries` is the small building block they share with
the examples: named series of (time, value) samples.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

__all__ = ["TimeSeries"]


class TimeSeries:
    """Named series of time-stamped samples.

    Samples must arrive in non-decreasing time order per series (the
    simulation clock is monotone).
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
