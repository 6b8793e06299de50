"""Churn schedules: joins, leaves, trace replay and flash crowds.

A churn schedule is an ordered list of :class:`ChurnEvent` entries; it can
be built from session triples, flash crowds and crash bursts, or loaded
from a session trace such as the synthetic Skype trace produced by
:mod:`repro.workloads.skype`.  The schedule is applied to an engine, which
invokes user-supplied ``join`` / ``leave`` callbacks at the right simulated
times, interleaved with gossip cycles by :class:`repro.sim.engine.CycleDriver`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, List, Optional, Sequence, Tuple

from repro.sim.engine import Engine

__all__ = ["ChurnEvent", "ChurnSchedule", "flash_crowd"]

JOIN = "join"
LEAVE = "leave"


@dataclass(frozen=True)
class ChurnEvent:
    """One membership change: node ``address`` joins or leaves at ``time``."""

    time: float
    address: int
    kind: str  # JOIN or LEAVE

    def __post_init__(self) -> None:
        if self.kind not in (JOIN, LEAVE):
            raise ValueError(f"unknown churn event kind: {self.kind!r}")
        if self.time < 0:
            raise ValueError("event time must be >= 0")


class ChurnSchedule:
    """An immutable, time-ordered sequence of churn events.

    Ordering is fully deterministic, including the degenerate case of a
    *simultaneous join and crash of the same node*: events sort by
    ``(time, address, kind)`` with LEAVE before JOIN, so a crash+restart
    scheduled at one instant nets to **online** — the restart wins —
    regardless of the construction order of the merged schedules.
    (Sorting by ``(time, address)`` alone left the tie to Python's stable
    sort, i.e. to whichever schedule happened to be built first.)
    """

    def __init__(self, events: Iterable[ChurnEvent]) -> None:
        self.events: List[ChurnEvent] = sorted(
            events, key=lambda e: (e.time, e.address, 0 if e.kind == LEAVE else 1)
        )

    def __len__(self) -> int:
        return len(self.events)

    def __iter__(self):
        return iter(self.events)

    @property
    def horizon(self) -> float:
        """Time of the last event (0 for an empty schedule)."""
        return self.events[-1].time if self.events else 0.0

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------
    @classmethod
    def from_sessions(
        cls, sessions: Sequence[Tuple[int, float, float]]
    ) -> "ChurnSchedule":
        """Build from ``(address, start, end)`` session triples.

        Each session yields a join at ``start`` and a leave at ``end``
        (sessions with ``end <= start`` are rejected).  This is the format
        the Skype-style trace generator emits.
        """
        events: List[ChurnEvent] = []
        for address, start, end in sessions:
            if end <= start:
                raise ValueError(f"session for node {address} ends before it starts")
            events.append(ChurnEvent(start, address, JOIN))
            events.append(ChurnEvent(end, address, LEAVE))
        return cls(events)

    @classmethod
    def flash_crowd(
        cls, addresses: Sequence[int], at: float, spread: float = 0.0, rng=None
    ) -> "ChurnSchedule":
        """A burst of joins at (or uniformly within ``spread`` seconds after)
        time ``at`` — the scenario that dents RVR's hit ratio in Fig. 12."""
        events = []
        for addr in addresses:
            jitter = float(rng.uniform(0.0, spread)) if (rng is not None and spread > 0) else 0.0
            events.append(ChurnEvent(at + jitter, addr, JOIN))
        return cls(events)

    @classmethod
    def crashes(
        cls, addresses: Sequence[int], at: float, spread: float = 0.0, rng=None
    ) -> "ChurnSchedule":
        """A burst of leaves at (or within ``spread`` seconds after) ``at``.

        Models crash-without-cleanup kills for fault injection: the victims
        simply stop (the ``leave`` callback should not deregister state —
        ``OverlayProtocolBase.leave`` already behaves this way), and the
        survivors must notice via heartbeats and repair around them.
        """
        events = []
        for addr in addresses:
            jitter = float(rng.uniform(0.0, spread)) if (rng is not None and spread > 0) else 0.0
            events.append(ChurnEvent(at + jitter, addr, LEAVE))
        return cls(events)

    # ------------------------------------------------------------------
    # Combinators
    # ------------------------------------------------------------------
    def merged(self, other: "ChurnSchedule") -> "ChurnSchedule":
        """A new schedule containing both event sets."""
        return ChurnSchedule(list(self.events) + list(other.events))

    # ------------------------------------------------------------------
    # Application
    # ------------------------------------------------------------------
    def apply(
        self,
        engine: Engine,
        join: Callable[[int], None],
        leave: Callable[[int], None],
    ) -> int:
        """Schedule every event on ``engine``.

        Events earlier than the engine's current time are rejected.  All
        event times are validated before anything is scheduled, so a
        rejected schedule leaves the engine untouched.  Returns the number
        of events scheduled.
        """
        now = engine.now
        for e in self.events:
            if e.time < now:
                raise ValueError(
                    f"event at t={e.time} is in the past (engine at t={now})"
                )
        n = 0
        for e in self.events:
            engine.schedule_at(e.time, join if e.kind == JOIN else leave, e.address)
            n += 1
        return n


def flash_crowd(
    cycle: int,
    n: Optional[int] = None,
    addresses: Optional[Sequence[int]] = None,
    period: float = 1.0,
    spread: float = 0.0,
    rng=None,
) -> ChurnSchedule:
    """Cycle-denominated flash crowd: ``n`` nodes (addresses ``0..n-1``,
    or an explicit ``addresses`` sequence) join at gossip cycle ``cycle``.

    Convenience wrapper over :meth:`ChurnSchedule.flash_crowd` for
    experiment code that thinks in cycles rather than simulated seconds;
    ``period`` is the gossip period (``config.gossip_period``) converting
    between the two.  Also the graceful-rejoin vehicle of the chaos
    sweep: apply with ``join=protocol.rejoin`` to bring crashed nodes
    back as a burst.
    """
    if (n is None) == (addresses is None):
        raise ValueError("pass exactly one of n or addresses")
    if addresses is None:
        addresses = range(n)
    return ChurnSchedule.flash_crowd(
        addresses, at=cycle * period, spread=spread, rng=rng
    )
