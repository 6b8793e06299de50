"""Delivery audit: reconcile expected vs actual deliveries per event.

For every published event in a causal trace (:mod:`repro.obs.spans`),
the auditor compares the subscriber count recorded on the root span (the
expected set at publish time) against the ``deliver`` spans actually
present, and checks that every shortfall is covered by a ``miss`` event
carrying a concrete cause.  The contract a healthy traced run satisfies:

- every published event has a structurally complete span tree (a root,
  and every span's parent present);
- ``deliveries + attributed misses == expected`` for every event;
- zero misses with cause ``unexplained``.

A violation of any of these is a tracing bug or a genuine delivery-path
anomaly worth a look — the CI trace-audit smoke job fails on it
(``python -m repro trace-report TRACE --audit``).
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.obs.spans import (
    CAUSE_UNEXPLAINED,
    HOP_PUBLISH,
    SpanTree,
    build_span_trees,
)

__all__ = ["EventAudit", "AuditReport", "audit_trace", "audit_trees", "event_trees"]


def event_trees(trees: Dict[Tuple[Optional[str], str], SpanTree]) -> List[SpanTree]:
    """The per-published-event trees of a trace (root kind ``publish``),
    excluding relay-installation traces (root kind ``lookup``)."""
    out = []
    for tree in trees.values():
        root = tree.spans.get(tree.root) if tree.root is not None else None
        if root is not None and root.kind == HOP_PUBLISH:
            out.append(tree)
    return out


@dataclass
class EventAudit:
    """Reconciliation of one published event."""

    trace_id: str
    trial: Optional[str]
    topic: Optional[int]
    publisher: Optional[int]
    expected: int
    delivered: int
    causes: Counter = field(default_factory=Counter)
    complete: bool = True
    #: Misses with no concrete cause: explicit ``unexplained`` miss
    #: events plus any shortfall not covered by a miss event at all.
    unexplained: int = 0

    @property
    def ok(self) -> bool:
        return self.complete and self.unexplained == 0


@dataclass
class AuditReport:
    """Aggregate audit over every published event of a trace."""

    events: List[EventAudit] = field(default_factory=list)

    @property
    def n_events(self) -> int:
        return len(self.events)

    @property
    def n_incomplete(self) -> int:
        return sum(1 for e in self.events if not e.complete)

    @property
    def expected_total(self) -> int:
        return sum(e.expected for e in self.events)

    @property
    def delivered_total(self) -> int:
        return sum(e.delivered for e in self.events)

    @property
    def unexplained_total(self) -> int:
        return sum(e.unexplained for e in self.events)

    def cause_totals(self) -> Counter:
        """Attributed misses per cause, over all events."""
        total: Counter = Counter()
        for e in self.events:
            total.update(e.causes)
        return total

    @property
    def ok(self) -> bool:
        """The audit contract: complete trees, zero unexplained misses."""
        return all(e.ok for e in self.events)

    def failures(self) -> List[EventAudit]:
        """The events violating the contract (empty on a healthy trace)."""
        return [e for e in self.events if not e.ok]


def audit_trees(trees: Dict[Tuple[Optional[str], str], SpanTree]) -> AuditReport:
    """Audit already-reconstructed span trees (see :func:`audit_trace`)."""
    report = AuditReport()
    for tree in event_trees(trees):
        delivered = len(tree.deliveries())
        expected = tree.meta.get("subs", delivered)
        causes: Counter = Counter(m.get("cause", CAUSE_UNEXPLAINED) for m in tree.misses)
        explicit_unexplained = causes.pop(CAUSE_UNEXPLAINED, 0)
        attributed = sum(causes.values())
        # Shortfall nothing accounts for: neither delivered nor missed —
        # a span was lost, or attribution silently skipped a subscriber.
        gap = max(0, expected - delivered - attributed - explicit_unexplained)
        report.events.append(
            EventAudit(
                trace_id=tree.trace_id,
                trial=tree.trial,
                topic=tree.meta.get("topic"),
                publisher=tree.meta.get("publisher"),
                expected=expected,
                delivered=delivered,
                causes=causes,
                complete=tree.is_complete(),
                unexplained=explicit_unexplained + gap,
            )
        )
    return report


def audit_trace(events: List[Dict]) -> AuditReport:
    """Audit a loaded JSONL trace (list of event dicts)."""
    return audit_trees(build_span_trees(events))
