"""The SWIM failure detector on real probe datagrams.

:class:`repro.faults.detector.SwimDetector` runs the suspicion state
machine against the simulator's fault model with one *shared* verdict per
subject.  On a real wire nothing is shared: every node runs this
per-observer detector over the same
:class:`~repro.faults.detector.Verdict` transitions and the same
:class:`~repro.faults.detector.DetectorConfig` deadline scaling, with
each protocol leg an actual datagram (all SWIM kinds ride the transport's
unreliable class — the detector *is* the reliability layer here):

1. every probe period, ping one random routing-table neighbor
   (``Probe``) and expect a ``ProbeAck`` before the next tick;
2. on a miss, ask ``probe_fanout`` proxies (``ProbeReq``) to ping the
   target and relay its ack back;
3. if nothing returns by the following tick, *suspect* the target:
   start the grace deadline (``suspicion_cycles(N)`` probe periods) and
   gossip ``Suspicion`` notices — including one to the target itself,
   the datagram equivalent of SWIM's piggybacked obituary reaching its
   subject;
4. a node hearing its own obituary bumps its incarnation and answers
   with ``Refutation``; a refutation with a newer incarnation clears the
   suspicion at every observer it reaches;
5. a suspicion that survives its deadline is *confirmed*: the node is
   purged from the routing table, peer views and relay trees
   (``on_confirm`` — the live ``_evict_confirmed``/``prune_dead`` path)
   and reported dead to the seed registry.

Any delivered message doubles as proof of life (the transport is
authenticated by the registry handshake in this deployment), and the
transport's retry-budget give-up feeds straight into suspicion — a peer
that exhausts a reliable send's budget is treated like a missed probe
round rather than blocking the sender.
"""

from __future__ import annotations

import logging
from typing import Callable, Dict, List, Optional, Set

from repro.faults.detector import (
    STATE_ALIVE,
    STATE_DEAD,
    STATE_SUSPECT,
    DetectorConfig,
    VerdictTable,
)
from repro.sim.messages import Probe, ProbeAck, ProbeReq, Refutation, Suspicion

__all__ = ["LiveSwimDetector"]

log = logging.getLogger(__name__)

#: Suspicion notices gossiped per fresh suspicion (plus the subject).
_SUSPICION_FANOUT = 3


class LiveSwimDetector(VerdictTable):
    """One node's failure detector (construct one per process).

    Parameters
    ----------
    address:
        This node's overlay address.
    transport:
        The :class:`~repro.net.transport.UdpTransport` to send legs on.
    rng:
        Dedicated ``random.Random`` (never the protocol's).
    clock:
        Zero-arg wall-clock in seconds (the node's engine ``now``).
    period:
        Probe period in seconds (one detector "cycle"; deadlines scale
        with it).
    candidates:
        Zero-arg callable returning the current probe candidates (the
        node's routing-table addresses).
    config:
        Shared :class:`DetectorConfig` knobs.
    on_confirm:
        Called with a confirmed-dead address — the healing hook.
    on_transition:
        Called with ``(peer, prev_state, new_state)`` on every verdict
        state change (alive→suspect, suspect→alive, suspect→dead,
        dead→alive on resurrection/rejoin) — the observability hook the
        live health timeline is built from.
    """

    name = "swim-live"

    def __init__(
        self,
        address: int,
        transport,
        rng,
        clock: Callable[[], float],
        period: float,
        candidates: Callable[[], List[int]],
        config: Optional[DetectorConfig] = None,
        on_confirm: Optional[Callable[[int], None]] = None,
        population: Optional[Callable[[], int]] = None,
        on_transition: Optional[Callable[[int, str, str], None]] = None,
    ) -> None:
        super().__init__()
        self.address = address
        self.transport = transport
        self.rng = rng
        self.clock = clock
        self.period = period
        self.candidates = candidates
        self.config = config if config is not None else DetectorConfig()
        self.on_confirm = on_confirm
        self.on_transition = on_transition
        self.population = population if population is not None else (lambda: 2)
        #: This node's own incarnation number (bumped per refutation).
        self.incarnation = 0
        #: target → ack deadline for an outstanding direct probe.
        self._direct: Dict[int, float] = {}
        #: target → ack deadline for an outstanding indirect round.
        self._indirect: Dict[int, float] = {}
        #: target → origins waiting on our proxy probe of that target.
        self._proxying: Dict[int, Set[int]] = {}

    # ------------------------------------------------------------------
    # Queries (``confirmed``, the node's liveness predicate, is inherited)
    # ------------------------------------------------------------------
    def verdict_counts(self) -> Dict[str, int]:
        """Current number of suspected and confirmed-dead peers — the
        gauge pair the streamed metrics frames carry."""
        suspect = dead = 0
        for v in self._verdicts.values():
            if v.state == STATE_SUSPECT:
                suspect += 1
            elif v.state == STATE_DEAD:
                dead += 1
        return {"suspect": suspect, "dead": dead}

    def _note(self, peer: int, prev: str, new: str) -> None:
        if self.on_transition is not None and prev != new:
            self.on_transition(peer, prev, new)

    # ------------------------------------------------------------------
    # Grace deadline, in seconds
    # ------------------------------------------------------------------
    def _suspicion_deadline(self, now: float) -> float:
        cycles = self.config.suspicion_cycles(max(2, self.population()))
        return now + cycles * self.period

    # ------------------------------------------------------------------
    # One probe period
    # ------------------------------------------------------------------
    def tick(self) -> None:
        now = self.clock()
        self._escalate_direct_misses(now)
        self._escalate_indirect_misses(now)
        self._confirm_round(now)
        self._launch_probe(now)

    def _launch_probe(self, now: float) -> None:
        candidates = [
            a for a in self.candidates()
            if not self.confirmed(a) and a not in self._direct
            and a not in self._indirect
        ]
        if not candidates:
            return
        target = self.rng.choice(candidates)
        self.probes_sent += 1
        self._direct[target] = now + 0.9 * self.period
        self.transport.send(
            Probe(src=self.address, dst=target, target=target,
                  incarnation=self.incarnation)
        )

    def _escalate_direct_misses(self, now: float) -> None:
        for target in [t for t, d in self._direct.items() if d <= now]:
            del self._direct[target]
            self.probe_misses += 1
            proxies = [
                a for a in self.candidates()
                if a != target and not self.confirmed(a)
            ]
            self.rng.shuffle(proxies)
            proxies = proxies[: self.config.probe_fanout]
            if not proxies:
                self._suspect(target, now)
                continue
            self._indirect[target] = now + 0.9 * self.period
            for w in proxies:
                self.indirect_probes += 1
                self.transport.send(
                    ProbeReq(src=self.address, dst=w, target=target,
                             origin=self.address)
                )

    def _escalate_indirect_misses(self, now: float) -> None:
        for target in [t for t, d in self._indirect.items() if d <= now]:
            del self._indirect[target]
            self._suspect(target, now)

    def _suspect(self, target: int, now: float) -> None:
        v = self._verdict(target)
        prev = v.state
        if v.suspect(self.address, self._suspicion_deadline(now)):
            self.suspicions += 1
            self._note(target, prev, v.state)
            log.debug("node %d suspects %d", self.address, target)
        # Gossip the obituary: to the subject (its chance to refute) and
        # to a few neighbors, fresh or not — re-suspicions re-gossip so a
        # lost first notice is not fatal on an unreliable leg.
        notice = dict(target=target, incarnation=v.incarnation)
        self.transport.send(Suspicion(src=self.address, dst=target, **notice))
        others = [a for a in self.candidates() if a != target]
        self.rng.shuffle(others)
        for a in others[:_SUSPICION_FANOUT]:
            self.transport.send(Suspicion(src=self.address, dst=a, **notice))

    def _confirm_round(self, now: float) -> None:
        for t in sorted(self._verdicts):
            v = self._verdicts[t]
            prev = v.state
            if not v.confirm(now):
                continue
            self.confirmations += 1
            self._note(t, prev, v.state)
            self._direct.pop(t, None)
            self._indirect.pop(t, None)
            log.info("node %d confirms %d dead", self.address, t)
            if self.on_confirm is not None:
                self.on_confirm(t)

    # ------------------------------------------------------------------
    # Inbound protocol legs (called from the node's dispatch)
    # ------------------------------------------------------------------
    def on_message(self, msg) -> bool:
        """Handle a SWIM message; returns True when it was consumed."""
        if isinstance(msg, Probe):
            self.transport.send(
                ProbeAck(src=self.address, dst=msg.src, target=self.address,
                         incarnation=self.incarnation)
            )
            return True
        if isinstance(msg, ProbeReq):
            self._proxying.setdefault(msg.target, set()).add(msg.origin)
            self.transport.send(
                Probe(src=self.address, dst=msg.target, target=msg.target,
                      incarnation=0)
            )
            return True
        if isinstance(msg, ProbeAck):
            self._on_ack(msg)
            return True
        if isinstance(msg, Suspicion):
            self._on_suspicion(msg)
            return True
        if isinstance(msg, Refutation):
            v = self._verdicts.get(msg.target)
            if v is not None:
                prev = v.state
                if v.refute(msg.incarnation):
                    self.refutations += 1
                    self._note(msg.target, prev, v.state)
            return True
        return False

    def _on_ack(self, msg: ProbeAck) -> None:
        target = msg.target
        self._direct.pop(target, None)
        self._indirect.pop(target, None)
        v = self._verdicts.get(target)
        if v is not None and v.state != STATE_DEAD:
            prev = v.state
            if v.mark_alive():
                self._note(target, prev, v.state)
            v.incarnation = max(v.incarnation, msg.incarnation)
        waiting = self._proxying.pop(target, None)
        if waiting:
            for origin in waiting:
                self.transport.send(
                    ProbeAck(src=self.address, dst=origin, target=target,
                             incarnation=msg.incarnation)
                )

    def _on_suspicion(self, msg: Suspicion) -> None:
        if msg.target == self.address:
            # Our own obituary: outbid it and tell the suspector.
            if msg.incarnation >= self.incarnation:
                self.incarnation = msg.incarnation + 1
            self.transport.send(
                Refutation(src=self.address, dst=msg.src, target=self.address,
                           incarnation=self.incarnation)
            )
            return
        v = self._verdict(msg.target)
        if msg.incarnation >= v.incarnation:
            prev = v.state
            if v.suspect(msg.src, self._suspicion_deadline(self.clock())):
                self._note(msg.target, prev, v.state)

    # ------------------------------------------------------------------
    # Passive evidence
    # ------------------------------------------------------------------
    def note_heard(self, address: int) -> None:
        """Any delivered message from ``address`` is proof of life.

        This also *resurrects* a confirmed-dead peer: on a real wire a
        false confirmation (e.g. probe deadlines blown by CPU starvation,
        not death) must not shun a live node forever — the transport is
        registry-authenticated, so a delivered datagram is ground truth.
        The verdict resets and the peer re-enters through normal gossip.
        """
        v = self._verdicts.get(address)
        if v is not None:
            if v.state == STATE_DEAD:
                del self._verdicts[address]
                self.rejoins += 1
                self._note(address, STATE_DEAD, STATE_ALIVE)
                log.info("node %d resurrects %d (heard from confirmed-dead)",
                         self.address, address)
            elif v.state == STATE_SUSPECT:
                if v.mark_alive():
                    self._note(address, STATE_SUSPECT, STATE_ALIVE)
        self._direct.pop(address, None)
        self._indirect.pop(address, None)

    def on_transport_failure(self, address: int) -> None:
        """A reliable send to ``address`` exhausted its retry budget —
        treated as a missed probe round (suspect immediately)."""
        if not self.confirmed(address):
            self._suspect(address, self.clock())

    def on_rejoin(self, address: int) -> None:
        """The registry re-announced ``address``: fresh verdict."""
        v = self._verdicts.pop(address, None)
        if v is not None:
            self.rejoins += 1
            self._note(address, v.state, STATE_ALIVE)
