"""Collectors for the paper's three metrics (section IV).

- **Hit ratio** — the fraction of events, over all topics, received by the
  subscriber nodes.
- **Traffic overhead** — the proportion of relay (uninteresting) traffic
  nodes experience: a message is *relay* traffic for the node handling it
  iff the node is not subscribed to the message's topic.
- **Propagation delay** — the average number of hops an event takes to
  reach its subscribers.

One :class:`DisseminationRecord` is produced per published event by the
dissemination engines (Vitis / RVR / OPT all emit the same shape), and a
:class:`MetricsCollector` aggregates any number of them into the metrics,
including the per-node overhead distribution of Fig. 5.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

__all__ = ["DisseminationRecord", "MetricsCollector", "restrict_record"]


@dataclass
class DisseminationRecord:
    """Outcome of disseminating one published event.

    Attributes
    ----------
    topic, event_id, publisher:
        What was published, and by whom (node address).
    subscribers:
        Addresses of the nodes subscribed to the topic at publish time,
        excluding the publisher (a publisher trivially "receives" its own
        event, so the paper's hit ratio is computed over the others).
    delivered_hops:
        ``{subscriber_address: hop_count}`` for every subscriber reached.
    interested_msgs / relay_msgs:
        ``{address: count}`` of messages handled by each node, split by
        whether the node was subscribed to the topic.
    """

    topic: int
    event_id: int
    publisher: int
    subscribers: frozenset = field(default_factory=frozenset)
    delivered_hops: Dict[int, int] = field(default_factory=dict)
    interested_msgs: Dict[int, int] = field(default_factory=dict)
    relay_msgs: Dict[int, int] = field(default_factory=dict)
    #: Summed link cost of every message (only populated when the
    #: protocol defines a ``link_cost`` hook; units are the hook's).
    physical_cost: float = 0.0
    #: Transmissions eaten by an attached fault model during this event's
    #: dissemination (0 on a perfect transport).
    faults: int = 0
    #: Retransmissions spent recovering from those faults (bounded by the
    #: healing policy; a fault with no retry budget left adds no retry).
    retries: int = 0
    #: Transmissions refused by an attached capacity model's bounded
    #: inboxes during this event (0 on an elastic transport); shed data
    #: is not resent — backpressure, not retry, is the reaction.
    shed: int = 0
    #: Transmissions the sender withheld on a backpressure signal instead
    #: of pushing into a saturated inbox (deferred/re-batched, not lost).
    deferred: int = 0
    #: Causal trace id of this event's span tree (traced runs only; see
    #: :mod:`repro.obs.spans`).  None on untraced runs.
    trace_id: Optional[str] = None

    @property
    def n_subscribers(self) -> int:
        return len(self.subscribers)

    @property
    def n_delivered(self) -> int:
        return len(self.delivered_hops)

    @property
    def total_messages(self) -> int:
        return sum(self.interested_msgs.values()) + sum(self.relay_msgs.values())

    @property
    def total_relay_messages(self) -> int:
        return sum(self.relay_msgs.values())


def restrict_record(
    record: DisseminationRecord, eligible: Iterable[int]
) -> DisseminationRecord:
    """A copy of ``record`` whose hit-ratio denominator is restricted to
    ``eligible`` subscribers.

    Implements the paper's measurement rule for churn/Twitter experiments:
    "the hit ratio for a node is calculated 10 seconds after the node
    joins" — nodes that joined more recently are excluded from the
    denominator.  Traffic accounting is unchanged, so the copy shares the
    source's two tallies: records are read-only once built.
    """
    keep = frozenset(eligible)
    subscribers = record.subscribers & keep
    return DisseminationRecord(
        topic=record.topic,
        event_id=record.event_id,
        publisher=record.publisher,
        subscribers=subscribers,
        delivered_hops={a: h for a, h in record.delivered_hops.items() if a in subscribers},
        interested_msgs=record.interested_msgs,
        relay_msgs=record.relay_msgs,
        physical_cost=record.physical_cost,
        faults=record.faults,
        retries=record.retries,
        shed=record.shed,
        deferred=record.deferred,
        trace_id=record.trace_id,
    )


class MetricsCollector:
    """Aggregates dissemination records into the paper's metrics.

    ``add`` folds each record once, into what every run reads: the record
    list and the two message totals behind :meth:`traffic_overhead_pct`.
    The per-node tallies only Fig. 5 reads are folded when asked —
    :meth:`per_node_overhead` and :meth:`overhead_histogram` fold the
    records added since their last read, in the order they were added,
    so the tallies are the ones an eager fold would build.
    """

    def __init__(self) -> None:
        self.records: List[DisseminationRecord] = []
        self._interested_total = 0  # msgs on subscribed topics, all nodes
        self._relay_total = 0       # msgs on unsubscribed topics, all nodes
        self._interested: Dict[int, int] = {}  # addr -> msgs on subscribed topics
        self._relay: Dict[int, int] = {}       # addr -> msgs on unsubscribed topics
        self._folded = 0  # records[:_folded] are in the per-node tallies

    def add(self, record: DisseminationRecord) -> None:
        """Fold one event's outcome into the aggregate."""
        self.records.append(record)
        self._interested_total += sum(record.interested_msgs.values())
        self._relay_total += sum(record.relay_msgs.values())

    def extend(self, records: Iterable[DisseminationRecord]) -> None:
        for r in records:
            self.add(r)

    def __len__(self) -> int:
        return len(self.records)

    # ------------------------------------------------------------------
    # Headline metrics
    # ------------------------------------------------------------------
    def hit_ratio(self) -> float:
        """Overall hit ratio: delivered subscriber slots / total slots."""
        total = sum(r.n_subscribers for r in self.records)
        if total == 0:
            return 1.0
        delivered = sum(r.n_delivered for r in self.records)
        return delivered / total

    def traffic_overhead_pct(self) -> float:
        """Global traffic overhead: relay messages as % of all messages."""
        relay = self._relay_total
        total = relay + self._interested_total
        if total == 0:
            return 0.0
        return 100.0 * relay / total

    def mean_delay(self) -> float:
        """Average hop count over every delivered (event, subscriber) pair."""
        hops = 0
        n = 0
        for r in self.records:
            hops += sum(r.delivered_hops.values())
            n += len(r.delivered_hops)
        return hops / n if n else 0.0

    def mean_physical_cost(self) -> float:
        """Average physical (link-cost) price per event — only meaningful
        when records carry costs (protocol had a ``link_cost`` hook)."""
        if not self.records:
            return 0.0
        return sum(r.physical_cost for r in self.records) / len(self.records)

    def max_delay(self) -> int:
        """Worst-case hop count observed."""
        worst = 0
        for r in self.records:
            if r.delivered_hops:
                worst = max(worst, max(r.delivered_hops.values()))
        return worst

    # ------------------------------------------------------------------
    # Distributions (Fig. 5)
    # ------------------------------------------------------------------
    def _fold(self) -> None:
        """Fold the records added since the last read into the per-node
        tallies."""
        records = self.records
        interested, relay = self._interested, self._relay
        for rec in records[self._folded:]:
            for agg, tally in (interested, rec.interested_msgs), (relay, rec.relay_msgs):
                get = agg.get
                for a, n in tally.items():
                    agg[a] = get(a, 0) + n
        self._folded = len(records)

    def per_node_overhead(self) -> Dict[int, float]:
        """Per-node traffic overhead %, over all events.

        Only nodes that handled at least one message appear.
        """
        self._fold()
        out: Dict[int, float] = {}
        for addr in set(self._interested) | set(self._relay):
            relay = self._relay.get(addr, 0)
            total = relay + self._interested.get(addr, 0)
            if total:
                out[addr] = 100.0 * relay / total
        return out

    def overhead_histogram(
        self, bin_edges: Sequence[float] = (0, 10, 20, 30, 40, 50, 60, 70, 80, 90, 100)
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Fraction of nodes per overhead bin (the Fig. 5 series).

        Returns ``(bin_edges, fractions)`` where ``fractions[i]`` is the
        fraction of message-handling nodes whose overhead falls in
        ``[bin_edges[i], bin_edges[i+1])`` (last bin inclusive).
        """
        per_node = np.fromiter(self.per_node_overhead().values(), dtype=float)
        edges = np.asarray(bin_edges, dtype=float)
        if per_node.size == 0:
            return edges, np.zeros(len(edges) - 1)
        counts, _ = np.histogram(per_node, bins=edges)
        # np.histogram's last bin is closed on the right already.
        return edges, counts / per_node.size

    # ------------------------------------------------------------------
    # Summaries
    # ------------------------------------------------------------------
    def summary(self) -> Dict[str, float]:
        """The three headline metrics in one dict."""
        return {
            "events": float(len(self.records)),
            "hit_ratio": self.hit_ratio(),
            "traffic_overhead_pct": self.traffic_overhead_pct(),
            "mean_delay_hops": self.mean_delay(),
        }
