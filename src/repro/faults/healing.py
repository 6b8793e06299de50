"""Self-healing policy knobs.

A :class:`HealingPolicy` bounds how hard the protocol fights the fault
model:

- greedy lookups get up to ``lookup_attempts`` tries, each attempt
  routing *around* the links that failed previously (see
  ``OverlaySystem.lookup``); attempts within one publish happen at one
  simulated instant, mirroring an RPC timeout far shorter than the
  gossip period;
- per-hop dissemination transmissions get ``delivery_retries`` resends
  (spent by the transmission gate of ``repro.core.dissemination``);
- when ``repair_relays`` is set, the cycle loop re-elects gateways and
  re-installs relay paths for topics whose parent or rendezvous died
  (``VitisProtocol.repair_relays``).

The policy is immutable so one instance can be shared across the systems
of a comparison sweep.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["HealingPolicy", "RetryPolicy"]


@dataclass(frozen=True)
class HealingPolicy:
    """Bounded-retry/repair parameters for a faulty run."""

    #: Total greedy-lookup attempts per publish/install (>= 1).
    lookup_attempts: int = 3
    #: Extra per-hop transmissions during dissemination (0 = fire once).
    delivery_retries: int = 2
    #: Re-run election + lookup for topics with dead parents/rendezvous.
    repair_relays: bool = True

    def __post_init__(self) -> None:
        # ``not x >= …`` refuses NaN too: a NaN retry budget would make
        # the transmission gate draw no trial at all.
        if not self.lookup_attempts >= 1:
            raise ValueError("lookup_attempts must be >= 1")
        if not self.delivery_retries >= 0:
            raise ValueError("delivery_retries must be >= 0")


@dataclass(frozen=True)
class RetryPolicy:
    """Wall-clock retransmission schedule for the live UDP transport.

    The simulator's :class:`HealingPolicy` retries at one simulated
    instant; a real transport needs actual delays: capped exponential
    backoff with a bounded budget, plus jitter, so the
    retransmissions of many nodes recovering from one loss burst do not
    resynchronise into the next burst.

    ``max_attempts`` counts total transmissions (first send included).
    A message still unacked after the last attempt's timeout is *given
    up*: the transport reports the destination to the liveness layer and
    the message is dropped, never queued forever — degrading into the
    same fault-aware eviction path the simulator uses instead of
    blocking the protocol.
    """

    #: Total transmissions per message, first send included (>= 1).
    max_attempts: int = 5
    #: Ack timeout after the first transmission, in seconds.
    base_delay: float = 0.1
    #: Ceiling on any single backoff delay, in seconds.
    max_delay: float = 2.0
    #: Fractional jitter band applied to each delay (0 = deterministic).
    jitter: float = 0.5

    def __post_init__(self) -> None:
        # ``not x >= …`` refuses NaN too: a NaN delay, or a NaN cap that
        # ``min`` silently ignores, would otherwise pass.
        if not self.max_attempts >= 1:
            raise ValueError("max_attempts must be >= 1")
        if not self.base_delay > 0:
            raise ValueError("base_delay must be > 0")
        if not self.max_delay >= self.base_delay:
            raise ValueError("max_delay must be >= base_delay")
        if not 0 <= self.jitter <= 1:
            raise ValueError("jitter must be in [0, 1]")

    def delay(self, attempt: int, rng=None) -> float:
        """Seconds to wait for an ack after transmission ``attempt``
        (1-based): ``base * 2**(attempt-1)``, capped, jittered by up to
        ±``jitter``/2 of itself when an ``rng`` is supplied."""
        if attempt < 1:
            raise ValueError("attempt is 1-based")
        d = min(self.base_delay * (2 ** (attempt - 1)), self.max_delay)
        if rng is not None and self.jitter:
            d *= 1.0 + self.jitter * (rng.random() - 0.5)
        return d

    @property
    def min_delay(self) -> float:
        """The shortest delay :meth:`delay` returns for any attempt and
        any draw: the first attempt's, at the bottom of the jitter band."""
        return self.base_delay * (1.0 - self.jitter / 2)

