"""SWIM-style failure detection with suspicion and refutation.

The paper's liveness story is a plain heartbeat timeout: a neighbor whose
profile messages stop arriving is evicted after ``staleness_threshold``
silent cycles.  Under the injected faults of :mod:`repro.faults.models`
that rule *mis-evicts live nodes* — a persistently lossy link looks
exactly like a crash — tearing down healthy relay trees and inflating
repair traffic.  :class:`SwimDetector` replaces timeout-equals-death with
the SWIM protocol (Das et al., DSN 2002; see SNIPPETS.md pattern 3):

1. **Direct probe** — each cycle every live node pings one random
   routing-table neighbor and waits for the ack.
2. **Indirect probe** — on a miss, the prober asks ``probe_fanout``
   random proxies to ping the target on its behalf; any surviving
   four-leg chain (probe-req, probe, ack, ack) clears the target.  This
   is what routes around a lossy *link*: the proxies' links are drawn
   independently.
3. **Suspicion** — only when direct and all indirect probes miss is the
   target *suspected*, with a grace deadline of
   ``max(min_suspicion_cycles, round(suspicion_base · log2 N))`` cycles
   (SWIM scales the timeout with the log of the group size so the
   dissemination of the suspicion can outrun the verdict).
4. **Refutation** — a suspected-but-live node that hears its own obituary
   bumps its *incarnation number* and gossips a refutation; reaching any
   one suspector clears the suspicion globally.  Incarnations totally
   order verdicts about one node across its crash/rejoin cycles.
5. **Confirmation** — a suspicion that survives its deadline becomes
   confirmed-dead: the protocol purges the node from every routing table
   and peer-sampling view (``protocol._evict_confirmed``) and the
   liveness predicate shuns it from then on.

Modeling notes
--------------
Verdict state is global (one state machine per subject, shared by all
observers): suspicion/refutation gossip is modeled as instantly
consistent, matching the repository's existing boundary that gossip
exchanges themselves are not faulted (docs/robustness.md).  Message
*legs*, however, are individually subject to the attached fault model —
probes, acks, probe-reqs, suspicion notices and refutations each roll the
same per-link dice as any other transmission, charged under the kinds
registered in :mod:`repro.sim.messages` (all control priority).  Under a
partition the suspected side cannot hear or answer its obituary, but any
same-side observer whose probe succeeds clears the shared suspicion — so
partitions produce far fewer false confirmations than per-observer
timeouts, though not provably zero.

The detector is **zero-cost-off**: it only exists once
``protocol.attach_detector`` is called, owns its own RNG (never the
protocol's), and detached runs consume no randomness and stay
byte-identical.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Set

__all__ = [
    "DetectorConfig",
    "SwimDetector",
    "Verdict",
    "VerdictTable",
    "STATE_ALIVE",
    "STATE_SUSPECT",
    "STATE_DEAD",
]

STATE_ALIVE = "alive"
STATE_SUSPECT = "suspect"
STATE_DEAD = "dead"


@dataclass(frozen=True)
class DetectorConfig:
    """Tuning knobs of the SWIM detector (CLI: ``--probe-fanout``,
    ``--suspicion-timeout``).

    Attributes
    ----------
    probe_fanout:
        Number of proxies asked for an indirect probe after a direct
        miss (SWIM's ``k``).
    suspicion_base:
        Multiplier on ``log2 N`` for the suspicion deadline, in cycles.
    min_suspicion_cycles:
        Floor on the deadline, so tiny groups still get a grace period.
    """

    probe_fanout: int = 3
    suspicion_base: float = 0.5
    min_suspicion_cycles: int = 2

    def __post_init__(self) -> None:
        if self.probe_fanout < 0:
            raise ValueError("probe_fanout must be >= 0")
        if self.suspicion_base < 0:
            raise ValueError("suspicion_base must be >= 0")
        if self.min_suspicion_cycles < 1:
            raise ValueError("min_suspicion_cycles must be >= 1")

    def suspicion_cycles(self, n: int) -> int:
        """Grace period before a suspicion confirms, for group size ``n``."""
        return max(
            self.min_suspicion_cycles,
            round(self.suspicion_base * math.log2(max(2, n))),
        )


class Verdict:
    """The per-subject SWIM state machine: alive → suspect → dead, with
    incarnation numbers totally ordering verdicts across crash/rejoin
    cycles.

    Shared between the in-sim detector (one verdict per subject, global
    across observers — see the modeling notes above) and the live
    per-observer detector (:mod:`repro.net.liveness`, one verdict table
    per node).  ``deadline`` is in detector cycles here and in wall-clock
    seconds there; the transitions are identical.
    """

    __slots__ = ("state", "incarnation", "deadline", "suspectors")

    def __init__(self) -> None:
        self.state = STATE_ALIVE
        self.incarnation = 0
        self.deadline = 0.0
        self.suspectors: Set[int] = set()

    # ------------------------------------------------------------------
    # Transitions (each returns True when the state actually changed)
    # ------------------------------------------------------------------
    def mark_alive(self) -> bool:
        """Proof of life (an ack, or any authenticated message): a pending
        suspicion is disproved on the spot."""
        if self.state != STATE_SUSPECT:
            return False
        self.state = STATE_ALIVE
        self.suspectors.clear()
        return True

    def suspect(self, by: int, deadline: float) -> bool:
        """Record one observer's suspicion; starts the grace period on the
        alive → suspect edge only."""
        if self.state == STATE_DEAD:
            return False
        fresh = self.state == STATE_ALIVE
        if fresh:
            self.state = STATE_SUSPECT
            self.deadline = deadline
        self.suspectors.add(by)
        return fresh

    def refute(self, incarnation: int) -> bool:
        """A refutation at ``incarnation`` arrived: clears the suspicion
        iff it post-dates the one being refuted."""
        if self.state != STATE_SUSPECT or incarnation <= self.incarnation:
            return False
        self.incarnation = incarnation
        self.state = STATE_ALIVE
        self.suspectors.clear()
        return True

    def confirm(self, now: float) -> bool:
        """Deadline check: a suspicion that survived its grace period
        becomes confirmed-dead."""
        if self.state != STATE_SUSPECT or now < self.deadline:
            return False
        self.state = STATE_DEAD
        self.suspectors.clear()
        return True


class VerdictTable:
    """Per-subject verdicts plus the SWIM counter block — the state both
    detectors keep, whichever way they probe (:class:`SwimDetector`
    against the simulator's fault model, one table per protocol;
    :class:`repro.net.liveness.LiveSwimDetector` with real datagrams,
    one table per observer)."""

    def __init__(self) -> None:
        self._verdicts: Dict[int, Verdict] = {}
        # Counters (plain ints so rows need no telemetry backend).
        self.probes_sent = 0
        self.probe_misses = 0
        self.indirect_probes = 0
        self.suspicions = 0
        self.refutations = 0
        self.confirmations = 0
        self.rejoins = 0

    def confirmed(self, address: int) -> bool:
        v = self._verdicts.get(address)
        return v is not None and v.state == STATE_DEAD

    def summary(self) -> Dict[str, int]:
        """The counter block scenario rows embed (stable key order)."""
        return {
            "probes_sent": self.probes_sent,
            "probe_misses": self.probe_misses,
            "indirect_probes": self.indirect_probes,
            "suspicions": self.suspicions,
            "refutations": self.refutations,
            "confirmations": self.confirmations,
            "detector_rejoins": self.rejoins,
        }

    def _verdict(self, address: int) -> Verdict:
        v = self._verdicts.get(address)
        if v is None:
            v = self._verdicts[address] = Verdict()
        return v


class SwimDetector(VerdictTable):
    """The SWIM failure detector for one protocol instance.

    Parameters
    ----------
    rng:
        A dedicated ``random.Random`` (take one from the trial's
        :class:`repro.sim.rng.SeedTree`); the detector never touches the
        protocol's RNG, preserving detached byte-identity.
    config:
        :class:`DetectorConfig`; defaults apply when omitted.
    """

    name = "swim"

    def __init__(self, rng, config: Optional[DetectorConfig] = None) -> None:
        super().__init__()
        self.rng = rng
        self.config = config if config is not None else DetectorConfig()
        self.protocol = None
        self.cycle = 0
        #: address → simulated time of its confirmation (kept across
        #: rejoin for detection-latency accounting).
        self.confirmed_at: Dict[int, float] = {}

    def bind(self, protocol) -> None:
        """Called by ``protocol.attach_detector``."""
        self.protocol = protocol

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------

    # ------------------------------------------------------------------
    # Lifecycle hooks
    # ------------------------------------------------------------------
    def on_rejoin(self, address: int) -> None:
        """A node re-entered via bootstrap: reset its verdict to alive at
        a fresh incarnation, so stale suspicions cannot shun it."""
        v = self._verdicts.get(address)
        if v is None:
            return
        v.state = STATE_ALIVE
        v.incarnation += 1
        v.suspectors.clear()
        self.rejoins += 1

    def force_confirm(self, address: int) -> None:
        """Plant a confirmed-dead verdict directly (test/ops hook: the
        planted-topology false-eviction audit uses this)."""
        v = self._verdict(address)
        v.state = STATE_DEAD
        v.suspectors.clear()
        self.confirmations += 1
        if self.protocol is not None:
            self.confirmed_at[address] = self.protocol.engine.now
            self.protocol._evict_confirmed(address)

    # ------------------------------------------------------------------
    # One protocol cycle
    # ------------------------------------------------------------------
    def step(self, now: float, live: List) -> None:
        """Run one SWIM round over the live population.

        ``live`` is the protocol's node list for this cycle (any order —
        probing iterates a sorted copy so detector behavior is decoupled
        from the protocol's shuffle).
        """
        self.cycle += 1
        proto = self.protocol
        fm = proto.fault_model
        cap = proto.capacity
        nodes = sorted(live, key=lambda n: n.address)
        self._n_live = max(2, len(nodes))
        for node in nodes:
            self._probe_round(node, fm, cap, now)
        self._refute_round(fm, now)
        self._confirm_round(now)

    # ------------------------------------------------------------------
    # Probing
    # ------------------------------------------------------------------
    def _probe_round(self, node, fm, cap, now: float) -> None:
        u = node.address
        candidates = [a for a in node.rt.addresses if not self.confirmed(a)]
        if not candidates:
            return
        target = self.rng.choice(candidates)
        self.probes_sent += 1
        if self._direct_probe(u, target, fm, cap, now):
            self._mark_alive(target)
            return
        self.probe_misses += 1
        proxies = [a for a in candidates if a != target]
        self.rng.shuffle(proxies)
        for w in proxies[: self.config.probe_fanout]:
            self.indirect_probes += 1
            if self._indirect_probe(u, w, target, fm, now):
                self._mark_alive(target)
                return
        self._suspect(u, target, now)

    def _direct_probe(self, u: int, t: int, fm, cap, now: float) -> bool:
        proto = self.protocol
        if not proto.is_alive(t):
            # The dead never ack; no fault/capacity dice are rolled for
            # them (mirrors the heartbeat gate's ordering).
            return False
        if fm is not None and (
            fm.drop(u, t, "probe", now) or fm.drop(t, u, "ack", now)
        ):
            return False
        if cap is not None:
            admitted = cap.offer(u, t, "probe", now)
            proto.network.account_logical(u, t, "probe", admitted)
            if not admitted:
                return False
        return True

    def _indirect_probe(self, u: int, w: int, t: int, fm, now: float) -> bool:
        """One proxied chain: u → w (probe-req), w → t (probe), t → w
        (ack), w → u (ack).  All four legs must survive."""
        proto = self.protocol
        if not proto.is_alive(w) or not proto.is_alive(t):
            return False
        if fm is None:
            return True
        return not (
            fm.drop(u, w, "probe_req", now)
            or fm.drop(w, t, "probe", now)
            or fm.drop(t, w, "ack", now)
            or fm.drop(w, u, "ack", now)
        )

    # ------------------------------------------------------------------
    # State machine
    # ------------------------------------------------------------------
    def _mark_alive(self, address: int) -> None:
        """An ack came back: a pending suspicion is disproved on the spot
        (the shared-verdict analogue of an alive-message override)."""
        v = self._verdicts.get(address)
        if v is not None:
            v.mark_alive()

    def _suspect(self, by: int, target: int, now: float) -> None:
        v = self._verdict(target)
        deadline = self.cycle + self.config.suspicion_cycles(self._n_live)
        if v.suspect(by, deadline):
            self.suspicions += 1
            tel = self.protocol.telemetry
            if tel.enabled:
                tel.metrics.counter("detector_suspicions_total").inc()
                if tel.tracing:
                    tel.event(
                        "suspect", t=now, addr=target, by=by,
                        incarnation=v.incarnation, deadline=v.deadline,
                    )

    def _refute_round(self, fm, now: float) -> None:
        """Give every live suspect its chance to clear itself.

        The subject must first *hear* a suspicion notice (one suspector's
        gossip reaching it), then land its incarnation-bumped refutation
        on any suspector; both legs roll the fault dice, so a partitioned
        suspect stays suspected by the other side.
        """
        proto = self.protocol
        for t in sorted(self._verdicts):
            v = self._verdicts[t]
            if v.state != STATE_SUSPECT or not v.suspectors:
                continue
            if not proto.is_alive(t):
                continue  # the dead cannot refute
            suspectors = sorted(v.suspectors)
            heard = fm is None
            if not heard:
                for s in suspectors:
                    if proto.is_alive(s) and not fm.drop(s, t, "suspect", now):
                        heard = True
                        break
            if not heard:
                continue
            bumped = v.incarnation + 1  # the subject's rebuttal incarnation
            landed = False
            for s in suspectors:
                if not proto.is_alive(s):
                    continue
                if fm is not None and fm.drop(t, s, "refute", now):
                    continue
                landed = v.refute(bumped)
                self.refutations += 1
                tel = proto.telemetry
                if tel.enabled:
                    tel.metrics.counter("detector_refutations_total").inc()
                    if tel.tracing:
                        tel.event(
                            "refute", t=now, addr=t,
                            incarnation=v.incarnation, via=s,
                        )
                break
            if not landed:
                # The bump happened even though no rebuttal landed.
                v.incarnation = bumped

    def _confirm_round(self, now: float) -> None:
        proto = self.protocol
        for t in sorted(self._verdicts):
            v = self._verdicts[t]
            if not v.confirm(self.cycle):
                continue
            self.confirmations += 1
            self.confirmed_at[t] = now
            tel = proto.telemetry
            if tel.enabled:
                tel.metrics.counter("detector_confirmations_total").inc()
                if tel.tracing:
                    tel.event(
                        "confirm", t=now, addr=t, incarnation=v.incarnation,
                        false=proto.is_alive(t),
                    )
            proto._evict_confirmed(t)
