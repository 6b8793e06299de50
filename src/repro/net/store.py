"""Rolling per-node metrics time-series store for the live collector.

The collector feeds three inputs here while a cluster runs:

- ``metrics_delta`` frames from every node (decoded by
  :func:`repro.net.wire.decode_metrics_frame`) — each is the changed
  slice of that node's registry since its previous frame, so folding
  frames in order rebuilds the node's cumulative totals exactly
  (:meth:`repro.obs.registry.MetricsRegistry.merge` is the fold);
- ``swim`` trace records — verdict transitions, teed here *and* into the
  merged trace so the post-run timeline and the live view agree;
- driver-side progress notes — ring convergence samples and the
  cumulative expected-delivery count behind the live hit ratio.

Memory is bounded: every node keeps its cumulative totals (small — one
registry) plus a :class:`~collections.deque` of at most ``max_samples``
rendered samples; swim/ring/expected series are deques too.  Nodes start
their monotonic clocks at different wall instants, so samples are
aligned on the epoch ``ts`` each frame carries, normalised to seconds
since the store first saw data.

One consumer reads the store: :meth:`MetricsStore.to_doc` persists
everything (``live cluster --series-out``) for the post-run
``python -m repro live-report`` renderer.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Dict, Optional, Tuple

from repro.obs.registry import MetricsRegistry

__all__ = ["MetricsStore", "NodeSeries", "STORE_SCHEMA"]

#: Schema tag stamped into :meth:`MetricsStore.to_doc` output.
STORE_SCHEMA = "repro.net.livestore/1"

#: Histogram families sampled into the rolling series (count/sum/p50/p99
#: per sample — enough to chart latency evolution without storing every
#: bucket at every instant).
_SAMPLED_STATS = ("count", "sum", "p50", "p99")


class NodeSeries:
    """One node's cumulative totals plus its rolling sample window."""

    __slots__ = ("proc", "totals", "samples", "frames", "last_seq", "last_ts")

    def __init__(self, proc: int, max_samples: int) -> None:
        self.proc = proc
        self.totals = MetricsRegistry()
        self.samples: Deque[Dict] = deque(maxlen=max_samples)
        self.frames = 0
        self.last_seq = -1
        self.last_ts = 0.0


class MetricsStore:
    """Bounded, collector-resident view of a live cluster's telemetry."""

    def __init__(self, max_samples: int = 600, max_events: int = 100_000) -> None:
        self.max_samples = max_samples
        self.nodes: Dict[int, NodeSeries] = {}
        #: Verdict transitions: (t_aligned, proc, peer, prev, state).
        self.swim_events: Deque[Tuple[float, int, int, str, str]] = deque(
            maxlen=max_events
        )
        #: Driver convergence polls: (t_aligned, wrong_successors, total).
        self.ring_samples: Deque[Tuple[float, int, int]] = deque(maxlen=max_events)
        #: Driver publishes: (t_aligned, cumulative expected deliveries).
        self.expected_samples: Deque[Tuple[float, int]] = deque(maxlen=max_events)
        #: Frames rejected by :func:`decode_metrics_frame` / stale seq.
        self.dropped_frames = 0
        self._t0: Optional[float] = None

    # ------------------------------------------------------------------
    def _align(self, ts: float) -> float:
        if self._t0 is None:
            self._t0 = ts
        return ts - self._t0

    def node(self, proc: int) -> NodeSeries:
        s = self.nodes.get(proc)
        if s is None:
            s = self.nodes[proc] = NodeSeries(proc, self.max_samples)
        return s

    # ------------------------------------------------------------------
    def ingest(self, proc: int, seq: int, ts: float, delta: Dict) -> bool:
        """Fold one decoded metrics frame; returns False on a stale or
        out-of-order frame (kept-but-dropped, counted)."""
        series = self.node(proc)
        if seq <= series.last_seq:
            self.dropped_frames += 1
            return False
        series.last_seq = seq
        series.last_ts = ts
        series.frames += 1
        series.totals.merge(delta)
        series.samples.append(self._render_sample(series, self._align(ts)))
        return True

    def _render_sample(self, series: NodeSeries, t: float) -> Dict:
        dump = series.totals.to_dict()
        return {
            "t": t,
            "c": dump["counters"],
            "g": dump["gauges"],
            "h": {
                name: {k: h[k] for k in _SAMPLED_STATS}
                for name, h in dump["histograms"].items()
            },
        }

    # ------------------------------------------------------------------
    def note_swim(self, proc: int, ts: float, peer: int, prev: str, state: str) -> None:
        self.swim_events.append((self._align(ts), proc, peer, prev, state))

    def note_ring(self, ts: float, wrong: int, total: int) -> None:
        self.ring_samples.append((self._align(ts), wrong, total))

    def note_expected(self, ts: float, cumulative: int) -> None:
        self.expected_samples.append((self._align(ts), cumulative))

    # ------------------------------------------------------------------
    # Persistence (for the post-run live-report renderer)
    # ------------------------------------------------------------------
    def to_doc(self) -> Dict:
        return {
            "schema": STORE_SCHEMA,
            "nodes": {
                str(proc): {
                    "totals": s.totals.snapshot(),
                    "samples": list(s.samples),
                    "frames": s.frames,
                    "last_seq": s.last_seq,
                    "last_ts": s.last_ts,
                }
                for proc, s in sorted(self.nodes.items())
            },
            "swim": [list(e) for e in self.swim_events],
            "ring": [list(e) for e in self.ring_samples],
            "expected": [list(e) for e in self.expected_samples],
            "dropped_frames": self.dropped_frames,
        }

    def __len__(self) -> int:
        return len(self.nodes)
