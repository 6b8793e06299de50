"""Self-healing policy knobs.

A :class:`HealingPolicy` bounds how hard the protocol fights the fault
model:

- greedy lookups get up to ``LOOKUP_ATTEMPTS`` tries, each attempt
  routing *around* the links that failed previously (see
  ``OverlaySystem.lookup``); attempts within one publish happen at one
  simulated instant, mirroring an RPC timeout far shorter than the
  gossip period;
- per-hop dissemination transmissions get ``DELIVERY_RETRIES`` resends
  (spent by the transmission gate of ``repro.core.dissemination``);
- on a cycle that does not reinstall every relay path, the cycle loop
  re-elects gateways and re-installs relay paths for topics whose
  parent or rendezvous died (``VitisProtocol.repair_relays``).

The bounds are class constants, read through the instance the system
holds, so a test can attach a subclass that changes one.  The policy is
immutable so one instance can be shared across the systems of a
comparison sweep.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["HealingPolicy", "RetryPolicy"]


@dataclass(frozen=True)
class HealingPolicy:
    """Bounded-retry/repair parameters for a faulty run."""

    #: Total greedy-lookup attempts per publish/install (>= 1).
    LOOKUP_ATTEMPTS = 3
    #: Extra per-hop transmissions during dissemination (0 = fire once).
    DELIVERY_RETRIES = 2


@dataclass(frozen=True)
class RetryPolicy:
    """Wall-clock retransmission schedule for the live UDP transport.

    The simulator's :class:`HealingPolicy` retries at one simulated
    instant; a real transport needs actual delays: capped exponential
    backoff with a bounded budget, plus jitter, so the
    retransmissions of many nodes recovering from one loss burst do not
    resynchronise into the next burst.

    ``MAX_ATTEMPTS`` counts total transmissions (first send included).
    A message still unacked after the last attempt's timeout is *given
    up*: the transport reports the destination to the liveness layer and
    the message is dropped, never queued forever — degrading into the
    same fault-aware eviction path the simulator uses instead of
    blocking the protocol.
    """

    #: Total transmissions per message, first send included (>= 1).
    MAX_ATTEMPTS = 5
    #: Ack timeout after the first transmission, in seconds.
    BASE_DELAY = 0.1
    #: Ceiling on any single backoff delay, in seconds.
    MAX_DELAY = 2.0
    #: Fractional jitter band applied to each delay (0 = deterministic).
    JITTER = 0.5

    def delay(self, attempt: int, rng=None) -> float:
        """Seconds to wait for an ack after transmission ``attempt``
        (1-based): ``BASE_DELAY * 2**(attempt-1)``, capped at
        ``MAX_DELAY``, jittered by up to ±``JITTER``/2 of itself when an
        ``rng`` is supplied."""
        if attempt < 1:
            raise ValueError("attempt is 1-based")
        d = min(self.BASE_DELAY * (2 ** (attempt - 1)), self.MAX_DELAY)
        if rng is not None and self.JITTER:
            d *= 1.0 + self.JITTER * (rng.random() - 0.5)
        return d

    @property
    def min_delay(self) -> float:
        """The shortest delay :meth:`delay` returns for any attempt and
        any draw: the first attempt's, at the bottom of the jitter band."""
        return self.BASE_DELAY * (1.0 - self.JITTER / 2)

