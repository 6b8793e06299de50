"""Causal per-event span tracing.

The flat protocol trace (:mod:`repro.obs.trace`) can count what happened;
spans say *why*: every published event gets a **trace id**, and every
first receipt of that event by a node becomes a **span** —
``(span_id, parent_span_id, hop_kind)`` — so the whole dissemination
cascade of one event reconstructs into a tree.  Hop kinds cover the
paper's delivery pipeline end to end:

- ``publish`` — the root span (the publisher itself), plus direct
  publisher → known-interested-neighbor injections;
- ``flood`` — an intra-cluster flood edge (both endpoints subscribed and
  cluster-adjacent);
- ``lookup`` — a greedy-routing step toward ``hash(topic)``: the
  Scribe-style publisher injection and the gateways' ``RequestRelay``
  walks (``install`` traces);
- ``relay`` — a relay-tree edge (gateway → … → rendezvous and back down);
- ``rendezvous`` — a relay edge dispatched *by* the rendezvous node (the
  tree root fanning the event into the other branches);
- ``deliver`` — the terminal marker under a subscriber's receive span.

Failed transmissions appear as spans with a ``status`` field
(``faulted_link`` / ``partition`` / ``shed`` / ``dead_node``) and no
subtree; every
missed delivery is attributed to a concrete cause by a ``miss`` event
(see :mod:`repro.obs.audit`).

Everything here is guarded by ``telemetry.tracing`` — the recorder is
only ever constructed for traced runs, so untraced runs stay
byte-identical (the zero-cost-off contract shared with the fault and
capacity layers).

Span events are ordinary trace records (``ev: "span"`` / ``ev: "miss"``)
so they interleave with ``delivery`` / ``fault`` / ``shed`` / ``drop``
events in one JSONL file; :func:`build_span_trees` turns a loaded trace
back into :class:`SpanTree` objects keyed by ``(trial, trace_id)``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

__all__ = [
    "HOP_PUBLISH",
    "HOP_FLOOD",
    "HOP_LOOKUP",
    "HOP_RELAY",
    "HOP_RENDEZVOUS",
    "HOP_PROBE",
    "HOP_DELIVER",
    "HOP_KINDS",
    "CAUSE_FAULTED_LINK",
    "CAUSE_PARTITION",
    "CAUSE_SHED",
    "CAUSE_DEAD_NODE",
    "CAUSE_FALSE_EVICTION",
    "CAUSE_NO_PATH",
    "CAUSE_BACKPRESSURE",
    "CAUSE_UNEXPLAINED",
    "MISS_CAUSES",
    "SpanRecorder",
    "Span",
    "SpanTree",
    "build_span_trees",
    "trace_key",
]

# ----------------------------------------------------------------------
# Hop kinds (one per edge class of the delivery pipeline)
# ----------------------------------------------------------------------
HOP_PUBLISH = "publish"
HOP_FLOOD = "flood"
HOP_LOOKUP = "lookup"
HOP_RELAY = "relay"
HOP_RENDEZVOUS = "rendezvous"
HOP_PROBE = "probe"  #: a SWIM liveness probe edge (repro.faults.detector)
HOP_DELIVER = "deliver"

HOP_KINDS = (
    HOP_PUBLISH, HOP_FLOOD, HOP_LOOKUP, HOP_RELAY, HOP_RENDEZVOUS, HOP_PROBE,
    HOP_DELIVER,
)

# ----------------------------------------------------------------------
# Miss causes (every missed delivery is attributed to exactly one)
# ----------------------------------------------------------------------
CAUSE_FAULTED_LINK = "faulted_link"  #: a fault model ate the blocking edge
CAUSE_PARTITION = "partition"        #: the blocking edge was severed
CAUSE_SHED = "shed"                  #: the receiver's bounded inbox refused it
CAUSE_DEAD_NODE = "dead_node"        #: the blocking next hop was dead
CAUSE_FALSE_EVICTION = "false_eviction"  #: the blocking node was live but wrongly evicted
CAUSE_NO_PATH = "no_path"            #: structurally unreachable (no relay path)
CAUSE_BACKPRESSURE = "backpressure"  #: the publisher deferred injection
CAUSE_UNEXPLAINED = "unexplained"    #: attribution failed (audit flags these)

MISS_CAUSES = (
    CAUSE_FAULTED_LINK, CAUSE_PARTITION, CAUSE_SHED, CAUSE_DEAD_NODE,
    CAUSE_FALSE_EVICTION, CAUSE_NO_PATH, CAUSE_BACKPRESSURE, CAUSE_UNEXPLAINED,
)


class SpanRecorder:
    """Allocates span ids and emits the span events of one trace.

    One recorder covers one published event (or one relay installation
    walk); span ids are small integers, unique and dense within the
    trace, allocated in emission order so reconstruction is
    deterministic.  Construct only when ``telemetry.tracing`` is true.
    """

    __slots__ = ("telemetry", "trace_id", "t", "_next")

    def __init__(self, telemetry, trace_id: str, t: float) -> None:
        self.telemetry = telemetry
        self.trace_id = trace_id
        self.t = t
        self._next = 0

    def _alloc(self) -> int:
        sid = self._next
        self._next += 1
        return sid

    # ------------------------------------------------------------------
    def root(self, kind: str, addr: int, **fields) -> int:
        """The root span (no parent): the publish act itself.

        ``fields`` carry the per-event header (topic, event id, publisher,
        expected subscriber count) so only the root pays for it.
        """
        sid = self._alloc()
        self.telemetry.event(
            "span", t=self.t, trace=self.trace_id, span=sid,
            kind=kind, src=addr, dst=addr, hop=0, **fields,
        )
        return sid

    def hop(
        self,
        parent: Optional[int],
        kind: str,
        src: int,
        dst: int,
        hop: int,
        retries: int = 0,
    ) -> int:
        """One successful forwarded message: first receipt of the event by
        ``dst``.  Returns the new span id (the parent of whatever ``dst``
        forwards)."""
        sid = self._alloc()
        fields = {}
        if retries:
            fields["retries"] = retries
        self.telemetry.event(
            "span", t=self.t, trace=self.trace_id, span=sid, parent=parent,
            kind=kind, src=src, dst=dst, hop=hop, **fields,
        )
        return sid

    def deliver(self, parent: Optional[int], addr: int, hop: int) -> int:
        """The terminal delivery marker under a subscriber's receive span."""
        sid = self._alloc()
        self.telemetry.event(
            "span", t=self.t, trace=self.trace_id, span=sid, parent=parent,
            kind=HOP_DELIVER, src=addr, dst=addr, hop=hop,
        )
        return sid

    def failure(
        self,
        parent: Optional[int],
        kind: str,
        src: int,
        dst: int,
        hop: int,
        status: str,
    ) -> int:
        """A transmission that did not go through (``status`` says why).

        Failure spans are leaves: the event never reached ``dst`` along
        this edge, so nothing hangs under them.
        """
        sid = self._alloc()
        self.telemetry.event(
            "span", t=self.t, trace=self.trace_id, span=sid, parent=parent,
            kind=kind, src=src, dst=dst, hop=hop, status=status,
        )
        return sid

    def miss(
        self,
        addr: int,
        cause: str,
        src: Optional[int] = None,
        dst: Optional[int] = None,
    ) -> None:
        """Attribute one missed delivery to a concrete cause.

        ``(src, dst)`` name the blocking edge when one exists — the join
        key back to the ``fault`` / ``shed`` / ``drop`` events and failure
        spans of the same trace.
        """
        fields = {}
        if src is not None:
            fields["src"] = src
        if dst is not None:
            fields["dst"] = dst
        self.telemetry.event(
            "miss", t=self.t, trace=self.trace_id, addr=addr, cause=cause,
            **fields,
        )


# ----------------------------------------------------------------------
# Reconstruction
# ----------------------------------------------------------------------
@dataclass
class Span:
    """One reconstructed span (see the module docstring for kinds)."""

    span: int
    parent: Optional[int]
    kind: str
    src: int
    dst: int
    hop: int
    status: Optional[str] = None
    retries: int = 0

    @property
    def ok(self) -> bool:
        """True for a transmission that went through (no failure status)."""
        return self.status is None


@dataclass
class SpanTree:
    """All spans of one trace, indexed for tree walks.

    ``meta`` holds the root span's event header (``topic``, ``event``,
    ``publisher``, ``subs``, …) when present — per-event traces carry it,
    relay-installation traces carry topic and gateway instead.
    """

    trace_id: str
    trial: Optional[str] = None
    spans: Dict[int, Span] = field(default_factory=dict)
    children: Dict[int, List[int]] = field(default_factory=dict)
    root: Optional[int] = None
    meta: Dict = field(default_factory=dict)
    misses: List[Dict] = field(default_factory=list)

    def add(self, span: Span) -> None:
        self.spans[span.span] = span
        if span.parent is None and self.root is None:
            self.root = span.span
        if span.parent is not None:
            self.children.setdefault(span.parent, []).append(span.span)

    # ------------------------------------------------------------------
    def deliveries(self) -> List[Span]:
        """The ``deliver`` spans — one per subscriber actually reached."""
        return [s for s in self.spans.values() if s.kind == HOP_DELIVER]

    def path_to_root(self, span_id: int) -> List[Span]:
        """Spans from the root down to ``span_id`` (root first)."""
        path: List[Span] = []
        seen = set()
        cur: Optional[int] = span_id
        while cur is not None and cur not in seen:
            seen.add(cur)
            s = self.spans.get(cur)
            if s is None:
                break
            path.append(s)
            cur = s.parent
        path.reverse()
        return path

    def is_complete(self) -> bool:
        """Every non-root span's parent exists, and there is a root."""
        if self.root is None:
            return False
        return all(
            s.parent in self.spans
            for s in self.spans.values()
            if s.parent is not None
        )


def trace_key(event: Dict) -> Tuple[Optional[str], str]:
    """The grouping key of one span/miss/delivery record.

    Traces merged from parallel workers are tagged with a ``trial`` field
    (trace ids restart per worker); serial traces have none.
    """
    return (event.get("trial"), event["trace"])


def build_span_trees(events: List[Dict]) -> Dict[Tuple[Optional[str], str], SpanTree]:
    """Reconstruct every span tree in a loaded trace.

    Returns an insertion-ordered mapping ``(trial, trace_id) → SpanTree``
    covering both per-event traces and relay-installation traces; ``miss``
    events attach to their trace's tree.
    """
    trees: Dict[Tuple[Optional[str], str], SpanTree] = {}
    for e in events:
        ev = e.get("ev")
        if ev not in ("span", "miss") or "trace" not in e:
            continue
        key = trace_key(e)
        tree = trees.get(key)
        if tree is None:
            tree = trees[key] = SpanTree(trace_id=e["trace"], trial=e.get("trial"))
        if ev == "miss":
            tree.misses.append(e)
            continue
        span = Span(
            span=e["span"],
            parent=e.get("parent"),
            kind=e.get("kind", "?"),
            src=e.get("src", -1),
            dst=e.get("dst", -1),
            hop=e.get("hop", 0),
            status=e.get("status"),
            retries=e.get("retries", 0),
        )
        tree.add(span)
        if span.parent is None:
            # The root span carries the per-event header fields.
            for k in ("topic", "event", "publisher", "subs", "gateway"):
                if k in e:
                    tree.meta[k] = e[k]
    return trees
