"""Composable fault models for the simulated transport.

A :class:`FaultModel` answers three questions about a prospective message
from ``src`` to ``dst`` at simulated time ``now``:

- :meth:`~FaultModel.drop` — is this particular transmission lost?
  (may be stochastic; each call is one Bernoulli trial);
- :meth:`~FaultModel.severed` — is the link *surely* unusable right now?
  (deterministic; partitions say yes, loss models say no — repair logic
  keys off this to distinguish "lossy" from "gone");
- :meth:`~FaultModel.extra_delay` — additional one-way latency.

Models are installed on a :class:`repro.sim.network.Network` (transport
level) and, via :meth:`repro.core.protocol.OverlayProtocolBase.attach_faults`,
consulted by the fast-path dissemination, greedy lookups and the heartbeat
round — the three protocol paths a real deployment exercises over UDP.

Determinism: every stochastic model draws from the RNG handed to it (use a
:class:`repro.sim.rng.SeedTree` stream keyed on the fault seed).  The
simulation itself is deterministic, so the query order — and therefore the
exact set of injected faults — replays exactly for a given fault seed.
Per-link parameters (which links are lossy/slow) are derived from a stable
hash of the endpoint pair, independent of query order.

Every model counts the faults it injects in ``injected``; the consulting
sites additionally feed the ``faults_injected_total`` telemetry counter and
``fault`` trace events (see ``docs/robustness.md``).
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

__all__ = [
    "FaultModel",
    "MessageLoss",
    "LinkLoss",
    "Partition",
    "SlowLinks",
    "CompositeFault",
]


def _stable_unit(salt: int, src: int, dst: int) -> float:
    """A stable pseudo-uniform draw in [0, 1) for a directed link.

    FNV-1a over the (salt, src, dst) triple: the same link always maps to
    the same value regardless of when or how often it is queried, which
    keeps per-link parameters independent of the simulation's query order.
    """
    h = 2166136261
    for part in (salt, src, dst):
        for _ in range(4):
            h = ((h ^ (part & 0xFF)) * 16777619) & 0xFFFFFFFF
            part >>= 8
    return h / 4294967296.0


class FaultModel:
    """Base model: a perfectly reliable network (injects nothing).

    Subclasses override the three queries; ``injected`` counts every
    transmission the model has dropped so far (tests and scenario rows
    read it without needing telemetry).
    """

    name = "none"

    def __init__(self) -> None:
        self.injected = 0

    def drop(self, src: int, dst: int, kind: str, now: float) -> bool:
        """One Bernoulli trial: is this transmission lost?"""
        return False

    def severed(self, src: int, dst: int, now: float) -> bool:
        """Deterministically unusable right now (partitioned)?"""
        return False

    def extra_delay(self, src: int, dst: int, now: float) -> float:
        """Additional one-way latency for this transmission."""
        return 0.0


class MessageLoss(FaultModel):
    """I.i.d. message loss: every transmission is dropped with ``rate``.

    The fast-path flood evaluates ``drop``'s expression in place for an
    exact ``MessageLoss`` (``core/dissemination.py``, ``_inline_loss``),
    and a repeat publish replays its flood by drawing the same trials
    alone (``disseminate``): a change here changes both there too.
    """

    name = "loss"

    def __init__(self, rate: float, rng) -> None:
        super().__init__()
        if not 0.0 <= rate <= 1.0:
            raise ValueError(f"loss rate must be in [0, 1], got {rate}")
        self.rate = rate
        self._rng = rng

    def drop(self, src: int, dst: int, kind: str, now: float) -> bool:
        if self.rate and self._rng.random() < self.rate:
            self.injected += 1
            return True
        return False


class LinkLoss(FaultModel):
    """Per-link Bernoulli loss: a fixed ``lossy_fraction`` of directed
    links lose every transmission with ``rate``; the rest are perfect.

    Which links are lossy is a stable function of the endpoints (and
    ``salt``), so the lossy set does not depend on query order — only the
    individual Bernoulli trials consume the RNG.
    """

    name = "link_loss"

    def __init__(self, rate: float, rng, lossy_fraction: float = 1.0, salt: int = 0) -> None:
        super().__init__()
        if not 0.0 <= rate <= 1.0:
            raise ValueError(f"loss rate must be in [0, 1], got {rate}")
        if not 0.0 <= lossy_fraction <= 1.0:
            raise ValueError(f"lossy_fraction must be in [0, 1], got {lossy_fraction}")
        self.rate = rate
        self.lossy_fraction = lossy_fraction
        self._rng = rng
        self._salt = salt

    def link_rate(self, src: int, dst: int) -> float:
        """The loss rate of one directed link (0 for non-lossy links)."""
        if _stable_unit(self._salt, src, dst) < self.lossy_fraction:
            return self.rate
        return 0.0

    def drop(self, src: int, dst: int, kind: str, now: float) -> bool:
        r = self.link_rate(src, dst)
        if r and self._rng.random() < r:
            self.injected += 1
            return True
        return False


class Partition(FaultModel):
    """A network partition with a scheduled heal.

    Nodes are assigned to groups; while the partition is active
    (``start <= now < heal_at``) every transmission crossing a group
    boundary is dropped, deterministically.  Nodes absent from every group
    (e.g. late joiners) are unaffected.
    """

    name = "partition"

    def __init__(
        self,
        groups: Sequence[Iterable[int]],
        start: float = 0.0,
        heal_at: float = float("inf"),
    ) -> None:
        super().__init__()
        if not heal_at >= start:  # refuses NaN too: it would never activate
            raise ValueError(f"heal_at must be >= start, got {start}, {heal_at}")
        self.start = start
        self.heal_at = heal_at
        self._group_of: Dict[int, int] = {}
        for gi, members in enumerate(groups):
            for a in members:
                self._group_of[int(a)] = gi

    @classmethod
    def halves(
        cls, addresses: Sequence[int], start: float = 0.0,
        heal_at: float = float("inf"), rng=None,
    ) -> "Partition":
        """Split ``addresses`` into two equal groups (shuffled when an RNG
        is supplied, sorted-split otherwise — both deterministic)."""
        addrs = sorted(addresses)
        if rng is not None:
            rng.shuffle(addrs)
        mid = len(addrs) // 2
        return cls((addrs[:mid], addrs[mid:]), start=start, heal_at=heal_at)

    def active(self, now: float) -> bool:
        return self.start <= now < self.heal_at

    def severed(self, src: int, dst: int, now: float) -> bool:
        if not self.active(now):
            return False
        g = self._group_of
        gs, gd = g.get(src), g.get(dst)
        return gs is not None and gd is not None and gs != gd

    def drop(self, src: int, dst: int, kind: str, now: float) -> bool:
        if self.severed(src, dst, now):
            self.injected += 1
            return True
        return False


class SlowLinks(FaultModel):
    """Latency inflation: a stable ``slow_fraction`` of directed links get
    ``extra`` seconds of additional one-way delay (no loss)."""

    name = "slow_links"

    def __init__(self, extra: float, slow_fraction: float = 0.1, salt: int = 0) -> None:
        super().__init__()
        if not extra >= 0:  # refuses NaN too: it would poison the clock
            raise ValueError(f"extra delay must be >= 0, got {extra}")
        if not 0.0 <= slow_fraction <= 1.0:
            raise ValueError(f"slow_fraction must be in [0, 1], got {slow_fraction}")
        self.extra = extra
        self.slow_fraction = slow_fraction
        self._salt = salt

    def extra_delay(self, src: int, dst: int, now: float) -> float:
        if _stable_unit(self._salt, src, dst) < self.slow_fraction:
            return self.extra
        return 0.0


class CompositeFault(FaultModel):
    """Several fault models layered on one transport.

    A transmission is dropped by the first constituent that claims it
    (later models are not consulted for that transmission, so each drop
    is attributed to exactly one model); delays add up.
    """

    name = "composite"

    def __init__(self, models: Sequence[FaultModel]) -> None:
        self.models: List[FaultModel] = list(models)

    @property
    def injected(self) -> int:
        return sum(m.injected for m in self.models)

    def drop(self, src: int, dst: int, kind: str, now: float) -> bool:
        for m in self.models:
            if m.drop(src, dst, kind, now):
                return True
        return False

    def severed(self, src: int, dst: int, now: float) -> bool:
        return any(m.severed(src, dst, now) for m in self.models)

    def extra_delay(self, src: int, dst: int, now: float) -> float:
        return sum(m.extra_delay(src, dst, now) for m in self.models)
