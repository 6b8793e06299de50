"""Phase timers: where does the wall time of a run go?

A :class:`PhaseTimer` accumulates wall-clock time per named phase.
Phases nest — entering ``measure`` inside ``fig4`` accumulates under the
path ``fig4/measure`` — so the breakdown distinguishes the converge time
of one build from another's.  Timings are inclusive (a parent's total
contains its children's).
"""

from __future__ import annotations

import time
from typing import Callable, Dict, List, Optional, Tuple

from repro.obs.registry import Histogram

__all__ = ["PhaseTimer", "DURATION_BUCKETS"]

#: Second-scale bucket bounds for per-call phase durations — spans
#: microsecond-ish gossip steps up to multi-minute converge phases.
DURATION_BUCKETS: Tuple[float, ...] = (
    0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5,
    1, 2.5, 5, 10, 25, 50, 100, 250,
)


class _PhaseContext:
    __slots__ = ("_timer", "_name", "_t0")

    def __init__(self, timer: "PhaseTimer", name: str) -> None:
        self._timer = timer
        self._name = name
        self._t0 = 0.0

    def __enter__(self) -> "_PhaseContext":
        self._timer._stack.append(self._name)
        self._t0 = self._timer._clock()
        return self

    def __exit__(self, *exc) -> None:
        elapsed = self._timer._clock() - self._t0
        path = "/".join(self._timer._stack)
        self._timer._stack.pop()
        self._timer._record(path, elapsed)


class PhaseTimer:
    """Accumulates (calls, total seconds) per nested phase path."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self._clock = clock
        self._stack: List[str] = []
        self._totals: Dict[str, float] = {}
        self._calls: Dict[str, int] = {}
        self._durations: Dict[str, Histogram] = {}
        #: Called with (path, elapsed_seconds) on every phase exit — the
        #: Telemetry facade hooks this to emit ``phase`` trace events.
        self.on_exit: Optional[Callable[[str, float], None]] = None

    def phase(self, name: str) -> _PhaseContext:
        """Context manager timing one phase (re-enterable, nest freely)."""
        if "/" in name:
            raise ValueError(f"phase names must not contain '/': {name!r}")
        return _PhaseContext(self, name)

    def _record(self, path: str, elapsed: float) -> None:
        self._totals[path] = self._totals.get(path, 0.0) + elapsed
        self._calls[path] = self._calls.get(path, 0) + 1
        h = self._durations.get(path)
        if h is None:
            h = self._durations[path] = Histogram(DURATION_BUCKETS)
        h.observe(elapsed)
        if self.on_exit is not None:
            self.on_exit(path, elapsed)

    def current_path(self) -> str:
        """The phase path currently open (``""`` outside any phase)."""
        return "/".join(self._stack)

    # ------------------------------------------------------------------
    # Snapshot / merge — how worker-process timers reach the parent.
    # ------------------------------------------------------------------
    def snapshot(self) -> Dict:
        """Picklable dump of the accumulated totals and call counts."""
        return {
            "totals": dict(self._totals),
            "calls": dict(self._calls),
            "durations": {
                path: {
                    "buckets": list(h.buckets),
                    "bucket_counts": list(h.bucket_counts),
                    "count": h.count,
                    "sum": h.sum,
                    "min": h.min,
                    "max": h.max,
                }
                for path, h in self._durations.items()
            },
        }

    def merge(self, snapshot: Dict, prefix: str = "") -> None:
        """Fold a :meth:`snapshot` into this timer.

        ``prefix`` nests the incoming paths (a worker's ``converge``
        becomes ``fig4/converge`` when merged under the parent's ``fig4``
        phase).  ``on_exit`` is not fired for merged entries — they were
        already reported where they ran.
        """
        totals = snapshot.get("totals", {})
        calls = snapshot.get("calls", {})
        durations = snapshot.get("durations", {})  # absent in pre-PR-10 dumps
        for path, elapsed in totals.items():
            full = f"{prefix}/{path}" if prefix else path
            self._totals[full] = self._totals.get(full, 0.0) + elapsed
            self._calls[full] = self._calls.get(full, 0) + calls.get(path, 1)
        for path, data in durations.items():
            full = f"{prefix}/{path}" if prefix else path
            h = self._durations.get(full)
            if h is None:
                h = self._durations[full] = Histogram(data["buckets"])
            for i, c in enumerate(data["bucket_counts"]):
                h.bucket_counts[i] += c
            h.count += data["count"]
            h.sum += data["sum"]
            for attr, pick in (("min", min), ("max", max)):
                incoming = data[attr]
                if incoming is None:
                    continue
                current = getattr(h, attr)
                setattr(h, attr, incoming if current is None else pick(current, incoming))

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._totals)

    def to_rows(self) -> List[Dict]:
        """Breakdown rows (sorted by path) for
        :func:`repro.experiments.reporting.format_table`: top-level phases
        also carry their share of the summed top-level time."""
        top_total = sum(v for p, v in self._totals.items() if "/" not in p)
        rows: List[Dict] = []
        for path in sorted(self._totals):
            total = self._totals[path]
            rows.append(
                {
                    "phase": path,
                    "calls": self._calls[path],
                    "total_s": total,
                    "mean_s": total / self._calls[path],
                    "pct_of_run": 100.0 * total / top_total
                    if top_total and "/" not in path
                    else None,
                }
            )
        return rows

    def to_dict(self) -> Dict:
        out: Dict = {}
        for path in sorted(self._totals):
            entry: Dict = {"calls": self._calls[path], "total_s": self._totals[path]}
            h = self._durations.get(path)
            if h is not None and h.count:
                entry["p50_s"] = h.quantile(0.5)
                entry["p99_s"] = h.quantile(0.99)
            out[path] = entry
        return out
