"""Critical-path analysis over reconstructed span trees.

For each published event the span tree (:mod:`repro.obs.spans`) encodes
the full causal cascade; this module reduces it to the quantities the
paper reasons about:

- the **critical path** of an event — the root-to-delivery chain of its
  deepest delivery — decomposed per hop kind: how much of the depth is
  intra-cluster flooding vs greedy lookup vs relay-tree forwarding;
- per-hop-kind aggregates across all events (span counts, depth
  contributions) and the **hotspot relay nodes** that forward the most
  relay/rendezvous traffic;
- the **O(log² N + d) envelope check**: Vitis bounds delivery path
  length by the greedy-routing diameter of the small-world ring
  (O(log² N) lookup/relay hops, Symphony-style) plus the cluster
  diameter ``d`` absorbed by flooding.  A traced run validates that the
  observed p99 delivery depth stays inside that envelope.

All inputs are loaded JSONL traces (lists of event dicts) or the trees
:func:`repro.obs.spans.build_span_trees` makes of them; nothing here
touches a live simulation.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Tuple

from repro.obs.audit import event_trees
from repro.obs.spans import (
    HOP_DELIVER,
    HOP_FLOOD,
    HOP_KINDS,
    HOP_LOOKUP,
    HOP_PUBLISH,
    HOP_RELAY,
    HOP_RENDEZVOUS,
    SpanTree,
)

__all__ = [
    "PathBreakdown",
    "EventPathStats",
    "delivery_breakdown",
    "event_path_stats",
    "hop_kind_table",
    "relay_hotspots",
    "EnvelopeCheck",
    "check_envelope",
]


@dataclass
class PathBreakdown:
    """One root-to-delivery chain, decomposed per hop kind.

    ``hops`` is the delivery's protocol hop count; the per-kind fields
    count the *edges* of the chain (the root span and the terminal
    ``deliver`` marker are not edges, so
    ``publish + flood + lookup + relay + rendezvous`` can undershoot
    ``hops`` only when the chain is truncated by a reconstruction gap).
    """

    addr: int
    hops: int
    publish: int = 0
    flood: int = 0
    lookup: int = 0
    relay: int = 0
    rendezvous: int = 0


def delivery_breakdown(tree: SpanTree, deliver_span: int) -> PathBreakdown:
    """Decompose the chain from the root to one ``deliver`` span."""
    path = tree.path_to_root(deliver_span)
    terminal = path[-1]
    bd = PathBreakdown(addr=terminal.dst, hops=terminal.hop)
    for s in path:
        # Root span (parent None) and the deliver marker are not edges.
        if s.parent is None or s.kind == HOP_DELIVER:
            continue
        if s.kind == HOP_PUBLISH:
            bd.publish += 1
        elif s.kind == HOP_FLOOD:
            bd.flood += 1
        elif s.kind == HOP_LOOKUP:
            bd.lookup += 1
        elif s.kind == HOP_RELAY:
            bd.relay += 1
        elif s.kind == HOP_RENDEZVOUS:
            bd.rendezvous += 1
    return bd


@dataclass
class EventPathStats:
    """Per-event critical-path summary."""

    trace_id: str
    trial: Optional[str]
    topic: Optional[int]
    deliveries: int
    #: Breakdown of the deepest delivery (the event's critical path);
    #: None when nothing was delivered.
    critical: Optional[PathBreakdown]
    #: Deepest flood prefix over *all* deliveries — the observed cluster
    #: depth ``d`` this event paid.
    flood_depth: int
    #: Longest lookup + relay + rendezvous chain over all deliveries —
    #: the structured-routing share the O(log² N) term must cover.
    routing_depth: int
    #: Hop counts of every delivery (for percentile aggregation).
    delivery_hops: List[int] = field(default_factory=list)


def event_path_stats(tree: SpanTree) -> EventPathStats:
    """Critical-path statistics of one event tree."""
    critical: Optional[PathBreakdown] = None
    flood_depth = 0
    routing_depth = 0
    hops: List[int] = []
    for d in tree.deliveries():
        bd = delivery_breakdown(tree, d.span)
        hops.append(bd.hops)
        flood_depth = max(flood_depth, bd.flood)
        routing_depth = max(routing_depth, bd.lookup + bd.relay + bd.rendezvous)
        if critical is None or bd.hops > critical.hops:
            critical = bd
    return EventPathStats(
        trace_id=tree.trace_id,
        trial=tree.trial,
        topic=tree.meta.get("topic"),
        deliveries=len(hops),
        critical=critical,
        flood_depth=flood_depth,
        routing_depth=routing_depth,
        delivery_hops=hops,
    )


def hop_kind_table(trees: Iterable[SpanTree]) -> Dict[str, Dict[str, float]]:
    """Aggregate per-hop-kind statistics over event trees.

    For each hop kind: ``spans`` (successful spans of that kind),
    ``failed`` (failure spans of that kind), and the mean/max number of
    hops of that kind along a delivery chain (``per_path_mean`` /
    ``per_path_max`` — the latency share of the kind).
    """
    spans: Counter = Counter()
    failed: Counter = Counter()
    per_path: Dict[str, List[int]] = {k: [] for k in HOP_KINDS if k != HOP_DELIVER}
    for tree in trees:
        for s in tree.spans.values():
            (spans if s.ok else failed)[s.kind] += 1
        for d in tree.deliveries():
            bd = delivery_breakdown(tree, d.span)
            per_path[HOP_PUBLISH].append(bd.publish)
            per_path[HOP_FLOOD].append(bd.flood)
            per_path[HOP_LOOKUP].append(bd.lookup)
            per_path[HOP_RELAY].append(bd.relay)
            per_path[HOP_RENDEZVOUS].append(bd.rendezvous)
    table: Dict[str, Dict[str, float]] = {}
    for kind in HOP_KINDS:
        counts = per_path.get(kind, [])
        table[kind] = {
            "spans": spans.get(kind, 0),
            "failed": failed.get(kind, 0),
            "per_path_mean": (sum(counts) / len(counts)) if counts else 0.0,
            "per_path_max": max(counts) if counts else 0,
        }
    return table


def relay_hotspots(trees: Iterable[SpanTree], n: int = 10) -> List[Tuple[int, int]]:
    """The ``n`` nodes forwarding the most relay/rendezvous spans.

    Counts each relay-class span against its *source* (the forwarder);
    the top entries are the rendezvous nodes and upper relay tree — the
    load the paper's Fig. 5 worries about.  Ties break by address.
    """
    load: Counter = Counter()
    for tree in trees:
        for s in tree.spans.values():
            if s.ok and s.kind in (HOP_RELAY, HOP_RENDEZVOUS) and s.parent is not None:
                load[s.src] += 1
    return sorted(load.items(), key=lambda kv: (-kv[1], kv[0]))[:n]


def _percentile(values: List[int], q: float) -> float:
    """Nearest-rank percentile (q in [0, 100]) of a non-empty list."""
    xs = sorted(values)
    rank = max(1, math.ceil(q / 100.0 * len(xs)))
    return float(xs[rank - 1])


@dataclass
class EnvelopeCheck:
    """Result of the O(log² N + d) delivery-depth envelope check."""

    n_live: int          #: live-node count the bound is computed against
    d: int               #: observed cluster (flood) depth
    bound: float         #: log2(N)² + d + slack
    slack: float
    deliveries: int
    p99_hops: float
    max_hops: int
    ok: bool


def check_envelope(
    events: List[Dict],
    trees: Dict[Tuple[Optional[str], str], SpanTree],
    slack: float = 4.0,
) -> Optional[EnvelopeCheck]:
    """Check the observed delivery depths against ``O(log² N + d)``.

    ``N`` is the largest live-node count any ``gossip_exchange`` (or
    ``election``) record reports; ``d`` is the deepest flood prefix any
    delivery paid (the observed cluster diameter).  The bound is
    ``log2(N)^2 + d + slack`` — Symphony-style greedy routing does
    O(log² N) expected hops, and ``slack`` absorbs the constant factor
    and the tail of a *p99* comparison (worst-case chains under churn
    legitimately retry).  Returns None when the trace has no deliveries
    or no live-node records to size N from.
    """
    n_live = 0
    for e in events:
        if e.get("ev") in ("gossip_exchange", "election") and "live" in e:
            n_live = max(n_live, e["live"])
    hops: List[int] = []
    d = 0
    for tree in event_trees(trees):
        st = event_path_stats(tree)
        hops.extend(st.delivery_hops)
        d = max(d, st.flood_depth)
    if not hops or n_live < 2:
        return None
    bound = math.log2(n_live) ** 2 + d + slack
    p99 = _percentile(hops, 99.0)
    return EnvelopeCheck(
        n_live=n_live,
        d=d,
        bound=bound,
        slack=slack,
        deliveries=len(hops),
        p99_hops=p99,
        max_hops=max(hops),
        ok=p99 <= bound,
    )
