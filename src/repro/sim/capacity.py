"""Bounded per-node inboxes: service rates, queue depths, priority-aware
load shedding, and sender-visible backpressure.

The base transport is infinitely elastic — every message is delivered no
matter how many are in flight — so flash crowds and hot rendezvous nodes
can never actually saturate anything.  A :class:`CapacityModel` makes
overload real: each destination gets a bounded inbox that drains
``service_rate`` messages per gossip period of the attached system;
a message that arrives at a full inbox is *shed*, and senders can poll
:meth:`CapacityModel.backpressured` to defer traffic toward a saturated
destination instead of blindly resending into it.

Shedding policies
-----------------
``drop_newest``
    Plain tail drop: an arrival at a full queue is refused, regardless of
    priority.  The classic FIFO router; every class collapses together.
``drop_lowest`` (default)
    Trunk-reservation admission: priority class *p* is admitted only
    while the backlog is below its share of the queue
    (:data:`CLASS_SHARE`), so pulls are refused first, then
    notifications, then lookups, while control traffic may use the whole
    queue.  Deterministic and arrival-order independent — the decision
    depends only on the current backlog count — which keeps the
    instantaneous cycle-driven dissemination and the message-driven
    deployment path semantically identical.
``red``
    Probabilistic early drop (WRED-style): below ``RED_START`` of a
    class's share everything is admitted; from there the drop
    probability ramps linearly to 1 at the share boundary.  The only
    policy that consumes randomness — construct the model with an
    explicit RNG stream (``SeedTree(seed).pyrandom("red", ...)``).

Zero-cost-off contract
----------------------
Like ``attach_faults``, the capacity layer is strictly opt-in: with no
model attached every hook is a single ``is None`` check on the exact
pre-capacity code path, no RNG is consumed, and all scenario outputs are
byte-identical to a build without this module (see
tests/overload/test_attach_capacity.py).

Observability
-------------
The model counts everything itself (``offered``/``shed`` per kind plus
per-class tallies, ``backpressure_signals``) so scenario rows need no
telemetry; when a telemetry backend is bound via :meth:`CapacityModel.
bind`, sheds additionally feed the ``shed_total{kind=...}`` counter, the
``queue_depth`` gauge, and ``shed`` trace events, and backpressure polls
that fire feed ``backpressure_total`` (see docs/robustness.md).
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Dict

from repro.sim.messages import (
    PRIO_CONTROL,
    PRIO_LOOKUP,
    PRIO_NOTIFY,
    PRIO_PULL,
    priority_of,
)

__all__ = ["NodeCapacity", "CapacityModel", "SHED_POLICIES", "CLASS_SHARE"]

SHED_POLICIES = ("drop_newest", "drop_lowest", "red")

#: Fraction of the queue each priority class may occupy before admission
#: is refused under ``drop_lowest``/``red`` (trunk reservation): the
#: class's own traffic *plus everything above it* shares the headroom, so
#: as the backlog climbs, pulls are shut out first and control last.
CLASS_SHARE: Dict[int, float] = {
    PRIO_PULL: 0.55,
    PRIO_NOTIFY: 0.70,
    PRIO_LOOKUP: 0.85,
    PRIO_CONTROL: 1.0,
}


@dataclass(frozen=True)
class NodeCapacity:
    """The per-node inbox budget (uniform across nodes).

    Attributes
    ----------
    service_rate:
        Messages drained from an inbox per service window: one gossip
        period of the system the model is attached to, so "msgs/cycle"
        reads literally.
    queue_depth:
        Maximum backlog (messages awaiting service) an inbox holds.
    policy:
        One of :data:`SHED_POLICIES`.
    """

    #: Backlog fraction of ``queue_depth`` at which the destination
    #: starts signalling backpressure to polling senders.
    BACKPRESSURE_AT = 0.75
    #: Backlog fraction of a class's share where the ``red`` policy
    #: starts ramping its drop probability.
    RED_START = 0.5

    service_rate: int = 8
    queue_depth: int = 32
    policy: str = "drop_lowest"

    def __post_init__(self) -> None:
        if not self.service_rate >= 1:
            raise ValueError(f"service_rate must be >= 1, got {self.service_rate}")
        if not self.queue_depth >= 1:
            raise ValueError(f"queue_depth must be >= 1, got {self.queue_depth}")
        if self.policy not in SHED_POLICIES:
            raise ValueError(
                f"unknown shedding policy {self.policy!r}; pick one of {SHED_POLICIES}"
            )


class _Inbox:
    """One destination's backlog and last-serviced window index."""

    __slots__ = ("backlog", "window")

    def __init__(self) -> None:
        self.backlog = 0
        self.window = 0


class CapacityModel:
    """Bounded inboxes for every destination on one transport.

    The model is time-driven, not event-driven: each inbox lazily drains
    ``service_rate`` messages per elapsed ``period`` window whenever it
    is consulted, so the same mechanism serves the cycle-driven fast path
    (consulted at cycle boundaries) and the message-driven deployment
    (consulted at send time).  Install it with ``protocol.
    attach_capacity(model)``; pass an RNG stream only for the ``red``
    policy (the others are deterministic and draw nothing).
    """

    def __init__(self, capacity: NodeCapacity, rng=None) -> None:
        if capacity.policy == "red" and rng is None:
            raise ValueError("the 'red' policy needs an rng (it is probabilistic)")
        self.capacity = capacity
        self._rng = rng
        #: Seconds per service window: the attached system's gossip
        #: period, set by :meth:`bind`.
        self.period = 1.0
        self._inboxes: Dict[int, _Inbox] = {}
        #: Admission attempts / refusals by message kind.
        self.offered: Counter = Counter()
        self.shed: Counter = Counter()
        #: The same tallies by priority class (graceful-degradation reads).
        self.offered_by_class: Counter = Counter()
        self.shed_by_class: Counter = Counter()
        #: Times a sender polled a destination and was told to back off.
        self.backpressure_signals = 0
        self.peak_backlog = 0
        self.telemetry = None

    def bind(self, network, period: float, telemetry=None) -> None:
        """Hook the model to a transport's telemetry and its system's
        gossip period (``attach_capacity`` calls this; the network itself
        consults the model via its own ``capacity`` attribute)."""
        self.period = period
        self.telemetry = telemetry

    # -- admission ------------------------------------------------------
    def _box(self, dst: int) -> _Inbox:
        box = self._inboxes.get(dst)
        if box is None:
            box = self._inboxes[dst] = _Inbox()
        return box

    def _advance(self, box: _Inbox, now: float) -> None:
        """Drain the service budget of every window elapsed since the
        inbox was last consulted."""
        w = int(now // self.period)
        if w <= box.window:
            return
        drained = (w - box.window) * self.capacity.service_rate
        box.backlog = max(box.backlog - drained, 0)
        box.window = w

    def _admit(self, box: _Inbox, prio: int) -> bool:
        cap = self.capacity
        backlog = box.backlog
        if cap.policy == "drop_newest":
            return backlog < cap.queue_depth
        limit = CLASS_SHARE[prio] * cap.queue_depth
        if cap.policy == "drop_lowest":
            return backlog < limit
        # red: linear drop-probability ramp from RED_START*limit to limit.
        start = cap.RED_START * limit
        if backlog < start:
            return True
        if backlog >= limit:
            return False
        return self._rng.random() >= (backlog - start) / (limit - start)

    def offer(self, src: int, dst: int, kind: str, now: float) -> bool:
        """Admit one message into ``dst``'s inbox, or shed it.

        Returns True when the message is queued (it will be delivered);
        False when the shedding policy refuses it (the sender must treat
        it as lost — backpressure, not retry, is the intended reaction).
        """
        box = self._box(dst)
        self._advance(box, now)
        prio = priority_of(kind)
        self.offered[kind] += 1
        self.offered_by_class[prio] += 1
        admitted = self._admit(box, prio)
        if admitted:
            box.backlog += 1
            if box.backlog > self.peak_backlog:
                self.peak_backlog = box.backlog
        else:
            self.shed[kind] += 1
            self.shed_by_class[prio] += 1
        tel = self.telemetry
        if tel is not None and tel.enabled:
            tel.metrics.gauge("queue_depth").set(box.backlog)
            if not admitted:
                tel.metrics.counter("shed_total", kind=kind).inc()
                if tel.tracing:
                    tel.event(
                        "shed", t=now, site="capacity", kind=kind,
                        src=src, dst=dst, priority=prio, backlog=box.backlog,
                    )
        return admitted

    def backpressured(self, dst: int, now: float) -> bool:
        """Would a well-behaved sender defer traffic toward ``dst``?

        True once the backlog crosses ``BACKPRESSURE_AT`` of the queue
        depth — the signal a real transport surfaces as ECN marks or
        receive-window shrinkage.  Each positive poll is counted (and
        fed to ``backpressure_total``): it means a sender deferred.
        """
        box = self._inboxes.get(dst)
        if box is None:
            return False
        self._advance(box, now)
        cap = self.capacity
        if box.backlog < cap.BACKPRESSURE_AT * cap.queue_depth:
            return False
        self.backpressure_signals += 1
        tel = self.telemetry
        if tel is not None and tel.enabled:
            tel.metrics.counter("backpressure_total").inc()
        return True

    # -- reads ----------------------------------------------------------
    def shed_fraction(self) -> float:
        """Refused / offered, over all kinds (0.0 before any offer)."""
        offered = sum(self.offered.values())
        return sum(self.shed.values()) / offered if offered else 0.0

    def control_survival(self) -> float:
        """Fraction of control-class offers that were admitted (1.0 when
        none were offered) — the graceful-degradation headline number."""
        offered = self.offered_by_class[PRIO_CONTROL]
        if not offered:
            return 1.0
        return 1.0 - self.shed_by_class[PRIO_CONTROL] / offered

    def data_shed_fraction(self) -> float:
        """Shed fraction of the data plane (notifications + pulls)."""
        offered = self.offered_by_class[PRIO_NOTIFY] + self.offered_by_class[PRIO_PULL]
        if not offered:
            return 0.0
        shed = self.shed_by_class[PRIO_NOTIFY] + self.shed_by_class[PRIO_PULL]
        return shed / offered
