"""Metrics registry: counters, gauges and histograms with labels.

A deliberately small, Prometheus-flavoured in-process registry.  Metric
families are identified by name; instruments are identified by (name,
label set) and memoised, so hot paths can either cache the instrument once
(`c = registry.counter("x"); c.inc()` in a loop) or look it up per call
for labelled series (`registry.counter("lookups", system="vitis")`).

Everything is plain Python state — no background threads, no exporters.
:meth:`MetricsRegistry.to_dict` serialises the whole registry into the
JSON shape the CLI writes for ``--metrics-out``; for streaming consumers
:meth:`MetricsRegistry.delta_since` emits only what changed since a
cursor, in increments that :meth:`MetricsRegistry.merge` folds back into
the full picture (the live cluster's metric frames ride on this).
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Dict, List, Optional, Sequence, Tuple

__all__ = ["Counter", "Gauge", "Histogram", "MetricsRegistry"]

#: Default histogram buckets — generic enough for hop counts, millisecond
#: timings and message counts alike (upper bounds; +Inf is implicit).
DEFAULT_BUCKETS: Tuple[float, ...] = (
    1, 2, 5, 10, 25, 50, 100, 250, 500, 1000, 2500, 5000, 10000,
)

LabelKey = Tuple[Tuple[str, str], ...]


def _label_key(labels: Dict[str, object]) -> LabelKey:
    return tuple(sorted((k, str(v)) for k, v in labels.items()))


def _render_key(name: str, key: LabelKey) -> str:
    if not key:
        return name
    inner = ",".join(f"{k}={v}" for k, v in key)
    return f"{name}{{{inner}}}"


class Counter:
    """Monotonically increasing count."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0.0

    def inc(self, n: float = 1.0) -> None:
        if n < 0:
            raise ValueError(f"counters only go up: {n}")
        self.value += n


class Gauge:
    """A value that can go up and down (queue depth, live nodes, ...)."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0.0

    def set(self, v: float) -> None:
        self.value = float(v)


class Histogram:
    """Bucketed distribution with count/sum/min/max.

    ``buckets`` are upper bounds; an implicit +Inf bucket catches the
    rest.  Bucket counts are cumulative on export (Prometheus style).
    """

    __slots__ = ("buckets", "bucket_counts", "count", "sum", "min", "max")

    def __init__(self, buckets: Sequence[float] = DEFAULT_BUCKETS) -> None:
        self.buckets: Tuple[float, ...] = tuple(sorted(buckets))
        self.bucket_counts: List[int] = [0] * (len(self.buckets) + 1)
        self.count = 0
        self.sum = 0.0
        self.min: Optional[float] = None
        self.max: Optional[float] = None

    def observe(self, v: float) -> None:
        v = float(v)
        # ``le`` semantics: first bucket whose upper bound is >= v; past the
        # last bound the observation lands in the implicit +Inf slot.
        self.bucket_counts[bisect_left(self.buckets, v)] += 1
        self.count += 1
        self.sum += v
        self.min = v if self.min is None else min(self.min, v)
        self.max = v if self.max is None else max(self.max, v)

    def mean(self) -> float:
        return self.sum / self.count if self.count else 0.0

    def quantile(self, q: float) -> Optional[float]:
        """Estimate the ``q``-quantile (0 <= q <= 1) from the buckets.

        Classic Prometheus-style estimation: find the bucket the target
        rank falls in and interpolate linearly inside it, clamping to the
        observed ``min``/``max`` so estimates never leave the data range.
        Returns ``None`` when nothing was observed.
        """
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"quantile out of range: {q}")
        if not self.count:
            return None
        target = q * self.count
        cumulative = 0
        lower = self.min if self.min is not None else 0.0
        for i, c in enumerate(self.bucket_counts):
            if not c:
                continue
            upper = self.buckets[i] if i < len(self.buckets) else self.max
            if upper is None:  # +Inf bucket with no recorded max (unreachable)
                upper = lower
            if cumulative + c >= target:
                frac = (target - cumulative) / c
                est = lower + (upper - lower) * max(0.0, min(1.0, frac))
                if self.min is not None:
                    est = max(est, self.min)
                if self.max is not None:
                    est = min(est, self.max)
                return est
            cumulative += c
            lower = upper
        return self.max

    def to_dict(self) -> Dict:
        cumulative = []
        running = 0
        for c in self.bucket_counts[:-1]:
            running += c
            cumulative.append(running)
        return {
            "count": self.count,
            "sum": self.sum,
            "min": self.min,
            "max": self.max,
            "mean": self.mean(),
            "p50": self.quantile(0.5),
            "p90": self.quantile(0.9),
            "p99": self.quantile(0.99),
            "buckets": {str(b): c for b, c in zip(self.buckets, cumulative)},
        }


class MetricsRegistry:
    """Holds every instrument of one telemetry session."""

    def __init__(self) -> None:
        self._counters: Dict[Tuple[str, LabelKey], Counter] = {}
        self._gauges: Dict[Tuple[str, LabelKey], Gauge] = {}
        self._histograms: Dict[Tuple[str, LabelKey], Histogram] = {}

    # ------------------------------------------------------------------
    def counter(self, name: str, **labels) -> Counter:
        key = (name, _label_key(labels))
        c = self._counters.get(key)
        if c is None:
            c = self._counters[key] = Counter()
        return c

    def gauge(self, name: str, **labels) -> Gauge:
        key = (name, _label_key(labels))
        g = self._gauges.get(key)
        if g is None:
            g = self._gauges[key] = Gauge()
        return g

    def histogram(
        self, name: str, buckets: Optional[Sequence[float]] = None, **labels
    ) -> Histogram:
        key = (name, _label_key(labels))
        h = self._histograms.get(key)
        if h is None:
            h = self._histograms[key] = Histogram(buckets or DEFAULT_BUCKETS)
        return h

    # ------------------------------------------------------------------
    # Snapshot / merge — how worker-process registries reach the parent.
    # ------------------------------------------------------------------
    def snapshot(self) -> Dict:
        """A picklable, structural dump for cross-process transfer.

        Unlike :meth:`to_dict` (which renders keys for JSON output), the
        snapshot keeps names and label sets apart so :meth:`merge` can
        re-address the same instruments in another registry.
        """
        return {
            "counters": [
                [n, list(k), c.value] for (n, k), c in sorted(self._counters.items())
            ],
            "gauges": [
                [n, list(k), g.value] for (n, k), g in sorted(self._gauges.items())
            ],
            "histograms": [
                [
                    n,
                    list(k),
                    {
                        "buckets": list(h.buckets),
                        "bucket_counts": list(h.bucket_counts),
                        "count": h.count,
                        "sum": h.sum,
                        "min": h.min,
                        "max": h.max,
                    },
                ]
                for (n, k), h in sorted(self._histograms.items())
            ],
        }

    def merge(self, snapshot: Dict) -> None:
        """Fold a :meth:`snapshot` into this registry.

        Counters add, histograms add element-wise (the bucket layouts must
        match), gauges take the snapshot's value — merge snapshots in a
        deterministic order if last-write-wins matters.
        """
        for name, key, value in snapshot.get("counters", ()):
            self.counter(name, **dict(key)).inc(value)
        for name, key, value in snapshot.get("gauges", ()):
            self.gauge(name, **dict(key)).set(value)
        for name, key, data in snapshot.get("histograms", ()):
            h = self.histogram(name, buckets=data["buckets"], **dict(key))
            if h.buckets != tuple(sorted(data["buckets"])):
                raise ValueError(
                    f"histogram {name!r} bucket layout mismatch: "
                    f"{h.buckets} vs {data['buckets']}"
                )
            for i, c in enumerate(data["bucket_counts"]):
                h.bucket_counts[i] += c
            h.count += data["count"]
            h.sum += data["sum"]
            for attr in ("min", "max"):
                incoming = data[attr]
                if incoming is None:
                    continue
                current = getattr(h, attr)
                pick = min if attr == "min" else max
                setattr(h, attr, incoming if current is None else pick(current, incoming))

    def delta_since(self, cursor: Optional[Dict]) -> Tuple[Optional[Dict], Dict]:
        """Incremental snapshot: what changed since ``cursor``.

        Returns ``(delta, new_cursor)``.  ``delta`` has the same shape as
        :meth:`snapshot` but lists only instruments that changed or are
        new (a new one even at zero), with counters and histogram counts
        carrying *increments* (gauges carry their current value; histogram
        min/max stay cumulative, which is merge-safe because :meth:`merge`
        folds them with min/max).  Merging every delta of a session, in
        order, into an empty registry yields the same state as one final
        :meth:`snapshot` — that equivalence is what lets the live
        collector rebuild per-node totals from frames.

        ``cursor`` is opaque: pass ``None`` on the first call, then the
        returned ``new_cursor`` on each subsequent one.  When nothing
        changed, ``delta`` is ``None``.
        """
        prev_c = cursor.get("counters", {}) if cursor else {}
        prev_g = cursor.get("gauges", {}) if cursor else {}
        prev_h = cursor.get("histograms", {}) if cursor else {}

        counters = []
        new_c: Dict[Tuple[str, LabelKey], float] = {}
        for (n, k), c in sorted(self._counters.items()):
            new_c[(n, k)] = c.value
            prev = prev_c.get((n, k))
            if prev is None or c.value != prev:
                counters.append([n, list(k), c.value - (prev or 0.0)])

        gauges = []
        new_g: Dict[Tuple[str, LabelKey], float] = {}
        for (n, k), g in sorted(self._gauges.items()):
            new_g[(n, k)] = g.value
            if (n, k) not in prev_g or prev_g[(n, k)] != g.value:
                gauges.append([n, list(k), g.value])

        histograms = []
        new_h: Dict[Tuple[str, LabelKey], Tuple[int, Tuple[int, ...]]] = {}
        for (n, k), h in sorted(self._histograms.items()):
            new_h[(n, k)] = (h.count, tuple(h.bucket_counts), h.sum)
            old_count, old_buckets, old_sum = prev_h.get(
                (n, k), (0, (0,) * len(h.bucket_counts), 0.0)
            )
            if h.count == old_count and (n, k) in prev_h:
                continue
            histograms.append(
                [
                    n,
                    list(k),
                    {
                        "buckets": list(h.buckets),
                        "bucket_counts": [
                            c - o for c, o in zip(h.bucket_counts, old_buckets)
                        ],
                        "count": h.count - old_count,
                        "sum": h.sum - old_sum,
                        "min": h.min,
                        "max": h.max,
                    },
                ]
            )

        new_cursor = {"counters": new_c, "gauges": new_g, "histograms": new_h}
        if not (counters or gauges or histograms):
            return None, new_cursor
        delta = {}
        if counters:
            delta["counters"] = counters
        if gauges:
            delta["gauges"] = gauges
        if histograms:
            delta["histograms"] = histograms
        return delta, new_cursor

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._counters) + len(self._gauges) + len(self._histograms)

    def to_dict(self) -> Dict:
        """JSON-serialisable dump of every instrument."""
        return {
            "counters": {
                _render_key(n, k): c.value for (n, k), c in sorted(self._counters.items())
            },
            "gauges": {
                _render_key(n, k): g.value for (n, k), g in sorted(self._gauges.items())
            },
            "histograms": {
                _render_key(n, k): h.to_dict()
                for (n, k), h in sorted(self._histograms.items())
            },
        }
