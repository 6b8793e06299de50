"""System-level protocol orchestration.

:class:`OverlaySystem` owns everything a running overlay needs — the
engine, the network, the id space, profiles, the subscription index —
and exposes the operations every pub/sub system in this repository
shares (join/leave, lookup, publish, measurement), however its nodes are
driven.  :class:`OverlayProtocolBase` adds the per-cycle driver; the
message-driven :class:`repro.core.deployment.DeployedVitis` is the other
direct subclass.  The three systems of the paper specialise the
cycle-driven base:

- :class:`VitisProtocol` (here) — the paper's contribution;
- :class:`repro.baselines.rvr.RvrProtocol` — structured rendezvous routing;
- :class:`repro.baselines.opt.OptProtocol` — overlay-per-topic.

Cycle semantics follow PeerSim's cycle-driven model: each cycle every live
node executes, in a freshly shuffled order, (1) a peer-sampling exchange,
(2) a T-Man routing-table exchange, (3) a profile/heartbeat round; Vitis
additionally runs (4) a gateway-election round and (5) relay-path
installation.  For static-topology experiments, steps 4–5 can be deferred
to a single :meth:`VitisProtocol.finalize` call after convergence — the
fixed point is identical and the warm-up runs an order of magnitude
faster (an optimisation the guides' "profile first" workflow motivated).
"""

from __future__ import annotations

from collections import defaultdict
from functools import partial
from typing import (
    Collection, Dict, FrozenSet, Iterable, List, Mapping, Optional, Sequence, Set,
    Tuple, Union,
)

from repro import obs
from repro.core.config import VitisConfig
from repro.core.dissemination import _TopicMemo, default_publisher_targets, disseminate
from repro.core.gateway import ElectionStats, elect_round
from repro.core.identifiers import IdSpace
from repro.core.node import VitisNode
from repro.core.profile import NodeProfile
from repro.core.relay import RelayStats, clear_topic, install_path
from repro.core.utility import PublicationRates, UtilityFunction
from repro.gossip.view import Descriptor
from repro.sim.engine import CycleDriver, Engine
from repro.sim.metrics import DisseminationRecord
from repro.sim.network import Network
from repro.sim.rng import SeedTree
from repro.smallworld.routing import LookupResult, closer_first, greedy_route

__all__ = ["OverlaySystem", "OverlayProtocolBase", "VitisProtocol"]

SubscriptionMap = Union[Mapping[int, Iterable[int]], Sequence[Iterable[int]]]


class OverlaySystem:
    """Shared machinery for Vitis, both baselines and the deployed mode:
    population, ground-truth oracle, fault/capacity/detector attachment,
    lookup and publish.  How time advances is the subclass's business.

    Parameters
    ----------
    subscriptions:
        Either a sequence (address = index) or a mapping ``address →
        iterable of topic ids``.
    config:
        Protocol parameters (baselines reuse the relevant subset).
    seed:
        Root seed; all randomness derives from it.
    rates:
        Publication rates; defaults to uniform over the topic universe.
    n_topics:
        Size of the topic universe; inferred from subscriptions/rates when
        omitted.
    auto_start:
        Join every node immediately (the static-population experiments).
        Churn experiments pass False and drive joins from the schedule.
    utility:
        Preference-function override (e.g.
        :class:`repro.core.proximity.ProximityUtility`); defaults to the
        paper's Eq. 1 over ``rates``.
    telemetry:
        Observability sink (:class:`repro.obs.Telemetry`).  Defaults to
        the ambient :func:`repro.obs.current` telemetry, which is the
        no-op backend unless a scope is active — uninstrumented runs pay
        one attribute check per guarded site.
    """

    name = "base"
    #: Seed stream of the system-level RNG (bootstrap sampling and the
    #: cycle-driven shuffle).
    _rng_stream = "protocol"
    #: Bumped on every sanctioned topology or liveness write; caches key
    #: on it (cluster adjacency, forwarding targets, election results).
    topology_version = 0

    def __init__(
        self,
        subscriptions: SubscriptionMap,
        config: VitisConfig = VitisConfig(),
        seed: int = 0,
        rates: Optional[PublicationRates] = None,
        n_topics: Optional[int] = None,
        auto_start: bool = True,
        utility: Optional[UtilityFunction] = None,
        telemetry=None,
    ) -> None:
        self.config = config
        self.space = IdSpace()
        self.seeds = SeedTree(seed)
        self.telemetry = telemetry if telemetry is not None else obs.current()
        self.engine = Engine()
        self.network = Network(self.engine)
        # Wire the transport's telemetry at construction so drop/fault
        # events flow whenever tracing is on (the ambient default is the
        # no-op backend, so this costs nothing uninstrumented).
        self.network.telemetry = self.telemetry
        #: ``hash(topic)``, interned by the id space.
        self.topic_id = self.space.topic_id

        subs = _normalize_subscriptions(subscriptions)
        if n_topics is None:
            max_topic = max((t for s in subs.values() for t in s), default=-1)
            if rates is not None:
                max_topic = max(max_topic, rates.n_topics - 1)
            n_topics = max_topic + 1
        self.n_topics = n_topics
        self.rates = rates if rates is not None else PublicationRates.uniform(max(1, n_topics))
        self.utility = (
            utility
            if utility is not None
            else UtilityFunction(self.rates, config.rate_weighted_utility)
        )
        #: Optional ``(src, dst) -> float`` link-cost hook; when set,
        #: dissemination accumulates the physical cost of every message
        #: (see repro.core.proximity).
        self.link_cost = None
        #: Optional :class:`repro.faults.FaultModel` — install via
        #: :meth:`attach_faults`.  None everywhere = zero-cost-off: no
        #: fault hook runs and no RNG is consumed.
        self.fault_model = None
        #: Optional :class:`repro.faults.HealingPolicy` (with one, faulted
        #: lookups retry with route-around and relay trees are repaired).
        self.healing = None
        #: Lookup/delivery retransmissions spent so far (plain int so
        #: tests and scenario rows need no telemetry backend).
        self.fault_retries = 0
        #: Relay-tree repairs performed so far (topics re-installed).
        self.fault_repairs = 0
        #: Optional :class:`repro.sim.capacity.CapacityModel` — install
        #: via :meth:`attach_capacity`.  None everywhere = zero-cost-off:
        #: no capacity hook runs and no RNG is consumed.
        self.capacity = None
        #: Transmissions deferred on backpressure signals so far (plain
        #: int, like ``fault_retries``).
        self.backpressure_deferred = 0
        #: Optional :class:`repro.faults.SwimDetector` — install via
        #: :meth:`attach_detector`.  None everywhere = zero-cost-off: no
        #: probe runs and no RNG is consumed.
        self.detector = None
        #: The liveness predicate the overlay *acts* on (gossip exchanges,
        #: lookups, relay repair).  Literally ``self.is_alive`` until a
        #: detector is attached; then nodes the detector has confirmed
        #: dead are shunned even while ground-truth alive — the cost of a
        #: false positive made explicit.  Oracle uses (subscribers,
        #: rendezvous ground truth, bootstrap, measurement) keep
        #: ``is_alive``.
        self.liveness = self.is_alive
        #: Routing-table evictions of genuinely dead nodes so far.
        self.fault_evictions = 0
        #: Evictions of ground-truth-live nodes (false positives) so far.
        self.false_evictions = 0
        #: address → time of its most recent false eviction (cleared on
        #: rejoin); feeds the delivery auditor's ``false_eviction`` cause.
        self.false_eviction_log: Dict[int, float] = {}
        #: Directed ``(holder, victim)`` routing-table edges torn down
        #: while the victim was alive — the auditor's reachability
        #: augmentation for reclassifying ``no_path`` misses.
        self.false_evicted_edges: Set[tuple] = set()
        #: Miss-cause hint left by a :meth:`publisher_targets` that
        #: injected nothing (e.g. RVR's backpressure deferral); read by
        #: the tracing layer's miss attribution, reset per publish.
        self._injection_miss_cause = None

        self.sub_index: Dict[int, Set[int]] = defaultdict(set)
        self.nodes: Dict[int, VitisNode] = {}
        self._rng = self.seeds.pyrandom(self._rng_stream)
        #: topic → (topology_version, adjacency); see cluster_adjacency.
        self._cluster_cache: Dict[int, tuple] = {}
        #: topic → dissemination memo of the current topology version
        #: (see ``repro.core.dissemination._topic_cache``).
        self._fwd_cache: Dict[int, _TopicMemo] = {}
        self._event_counter = 0
        self.relay_stats = RelayStats()
        #: (metrics registry, 4 hot counters) memo for publish(); rebuilt
        #: if the registry object is ever swapped.
        self._pub_counters = None

        for address in sorted(subs):
            node = self._make_node(address, subs[address])
            self.network.add(node)
            self.nodes[address] = node
            for t in node.profile.subscriptions:
                self.sub_index[t].add(address)

        if auto_start:
            for address in sorted(self.nodes):
                self.join(address)

    # ------------------------------------------------------------------
    # Node construction (hook)
    # ------------------------------------------------------------------
    def _make_node(self, address: int, subscriptions: FrozenSet[int]) -> VitisNode:
        return VitisNode(
            address,
            self.space.node_id(address),
            subscriptions,
            self.config,
            self.space,
            self.utility,
            self.seeds.pyrandom("node", address),
        )

    # ------------------------------------------------------------------
    # Population
    # ------------------------------------------------------------------
    def is_alive(self, address: int) -> bool:
        n = self.nodes.get(address)
        return n is not None and n.alive

    def profile_of(self, address: int) -> Optional[NodeProfile]:
        """Last-known profile of a node (stale for dead nodes, by design)."""
        n = self.nodes.get(address)
        return n.profile if n is not None else None

    def live_addresses(self) -> List[int]:
        return [a for a, n in self.nodes.items() if n.alive]

    def live_count(self) -> int:
        return sum(1 for n in self.nodes.values() if n.alive)

    def subscribers(self, topic: int) -> Set[int]:
        """Live addresses subscribed to ``topic``."""
        subs = self.sub_index.get(topic, ())
        nodes = self.nodes
        return {a for a in subs if (n := nodes.get(a)) is not None and n.alive}

    def topics(self) -> List[int]:
        """All topics with at least one subscriber, ascending."""
        return sorted(t for t, s in self.sub_index.items() if s)

    def bootstrap_descriptors(self, k: int, exclude: int) -> List[Descriptor]:
        """``k`` random live descriptors — what a bootstrap server hands a
        joining node (Alg. 1 line 3)."""
        live = [a for a in self.live_addresses() if a != exclude]
        if len(live) > k:
            live = self._rng.sample(live, k)
        return [self.nodes[a].descriptor() for a in live]

    def join(self, address: int) -> None:
        """Bring a node online and bootstrap it."""
        node = self.nodes[address]
        seeds = self.bootstrap_descriptors(self.config.PEER_VIEW_SIZE, address)
        node.join(seeds)
        self.topology_version += 1
        # A joining node starts with a clean liveness slate: stale
        # false-eviction bookkeeping about it no longer explains misses,
        # and the detector must not shun it for a pre-crash verdict.
        if self.false_eviction_log:
            self.false_eviction_log.pop(address, None)
        if self.false_evicted_edges:
            self.false_evicted_edges = {
                e for e in self.false_evicted_edges if address not in e
            }
        if self.detector is not None:
            self.detector.on_rejoin(address)
        tel = self.telemetry
        if tel.enabled:
            tel.metrics.counter("joins_total", system=self.name).inc()
            tel.event("join", t=self.engine.now, addr=address)

    def leave(self, address: int) -> None:
        """Take a node offline (crash semantics: no goodbye messages)."""
        self.nodes[address].stop()
        self.topology_version += 1
        tel = self.telemetry
        if tel.enabled:
            tel.metrics.counter("leaves_total", system=self.name).inc()
            tel.event("leave", t=self.engine.now, addr=address)

    # ------------------------------------------------------------------
    # Subscriptions at runtime
    # ------------------------------------------------------------------
    def subscribe(self, address: int, topic: int) -> None:
        """A changed profile opens a fresh ``topology_version``: the
        topic memo's audience and compiled tables are keyed on it."""
        if self.nodes[address].profile.subscribe(topic):
            self.sub_index[topic].add(address)
            self.topology_version += 1

    def unsubscribe(self, address: int, topic: int) -> None:
        if self.nodes[address].profile.unsubscribe(topic):
            self.sub_index[topic].discard(address)
            self.topology_version += 1

    # ------------------------------------------------------------------
    # Fault injection and capacity (see docs/robustness.md)
    # ------------------------------------------------------------------
    def attach_faults(self, model, healing=None) -> None:
        """Install a fault model (and optional healing policy).

        The model is consulted by the network transport, greedy lookups,
        heartbeats and the fast-path dissemination; the healing policy
        bounds the retries/repairs spent against it.  Pass ``None`` to
        detach and return to the perfect transport.
        """
        self.fault_model = model
        self.healing = healing if model is not None else None
        self.network.fault_model = model

    def attach_capacity(self, model) -> None:
        """Install a capacity model (bounded per-node inboxes; see
        docs/robustness.md, "Overload and backpressure").

        The model is consulted by the network transport and, on the fast
        path, by dissemination edges, greedy lookup hops and heartbeats;
        senders additionally poll ``model.backpressured`` and defer
        traffic toward saturated inboxes instead of blindly resending.
        Pass ``None`` to detach and return to the infinitely elastic
        transport (zero-cost-off, like :meth:`attach_faults`).
        """
        self.capacity = model
        self.network.capacity = model
        if model is not None:
            model.bind(self.network, self.config.gossip_period, self.telemetry)

    def attach_detector(self, detector) -> None:
        """Install a SWIM-style failure detector (see docs/robustness.md,
        "SWIM failure detection").

        Attaching swaps :attr:`liveness` from the ground-truth oracle to
        the detector-aware predicate: confirmed-dead nodes are shunned by
        gossip exchanges, lookups and relay repair, and globally purged on
        confirmation.  Pass ``None`` to detach and return to oracle
        liveness (zero-cost-off, like :meth:`attach_faults`).  A
        sanctioned liveness write: opens a fresh ``topology_version``.
        """
        self.detector = detector
        if detector is not None:
            detector.bind(self)
            self.liveness = self._detector_liveness
        else:
            self.liveness = self.is_alive
        self.topology_version += 1

    def _detector_liveness(self, address: int) -> bool:
        """Liveness as the overlay perceives it: ground-truth alive *and*
        not confirmed dead by the detector."""
        return self.is_alive(address) and not self.detector.confirmed(address)

    def _evict_confirmed(self, address: int) -> int:
        """Globally purge a detector-confirmed node from every routing
        table and peer-sampling view (the dissemination of a confirmed
        verdict, modeled as instantly consistent like the other gossip
        exchanges).  Returns the number of routing tables it was in."""
        holders: List[int] = []
        for a in self.live_addresses():
            if a == address:
                continue
            n = self.nodes[a]
            if n.rt.remove(address):
                holders.append(a)
            n.ps.evict(address)
        removed = len(holders)
        for h in holders:
            self._note_eviction(h, address)
        alive = self.is_alive(address)
        if alive:
            # The detector was wrong: a live node just lost its overlay
            # presence in both directions.  Count at least one false
            # eviction even when no table held it (the liveness shun
            # alone breaks delivery).
            self.false_evicted_edges.update((address, h) for h in holders)
            if not holders:
                self.false_evictions += 1
                self.false_eviction_log[address] = self.engine.now
        self.topology_version += 1
        tel = self.telemetry
        if tel.enabled:
            tel.metrics.counter(
                "detector_evictions_total",
                system=self.name,
                false=str(alive).lower(),
            ).inc()
            if tel.tracing:
                tel.event(
                    "evict", t=self.engine.now, addr=address,
                    tables=removed, false=alive,
                )
        return removed

    def _note_eviction(self, holder: int, victim: int) -> None:
        """Attribute one routing-table eviction while it happens: a live
        victim is a false positive (a wrong verdict, a persistently lossy
        link or shed heartbeats masquerading as silence), a dead one the
        intended pruning."""
        if self.is_alive(victim):
            self.false_evictions += 1
            self.false_eviction_log[victim] = self.engine.now
            self.false_evicted_edges.add((holder, victim))
        else:
            self.fault_evictions += 1

    def rejoin(self, address: int) -> None:
        """Graceful re-entry of a previously crashed node.

        Bootstrap re-entry rides :meth:`join` (which also clears any
        detector verdict and false-eviction bookkeeping); the node's
        profile — and with it its subscriptions — survives the crash, so
        interest recovery is immediate.  Subclasses layer protocol state
        recovery on top (Vitis re-installs the relay trees of the
        returning node's topics).
        """
        self.join(address)
        tel = self.telemetry
        if tel.enabled:
            tel.metrics.counter("rejoins_total", system=self.name).inc()
            tel.event("rejoin", t=self.engine.now, addr=address)

    # ------------------------------------------------------------------
    # Routing
    # ------------------------------------------------------------------
    def lookup(self, start: int, target_id: int, kind: str = "lookup") -> LookupResult:
        """Greedy lookup from ``start`` toward ``target_id`` over the
        current routing tables, with timeout-and-retry route-around.

        With nothing attached this is one ungated walk.  With a fault
        model attached, each next hop is one transmission the model may
        eat: the hop is treated as a timed-out next hop, remembered in
        ``blocked`` and routed around (the walk falls back to the
        next-closest entry immediately within an attempt, and a healing
        policy grants further attempts).  Within one cycle-synchronous
        publish all attempts happen at one simulated instant, mirroring
        an RPC timeout far shorter than the gossip period.  With a capacity
        model attached, each surviving hop must also be admitted by the
        next node's bounded inbox; a refusal is a shed the walk routes
        around exactly like a fault (the lookup probe timed out because
        the receiver's queue was full).

        ``kind`` is the message kind the hops are charged as — relay
        installation passes ``"relay_install"`` so its lookups ride the
        control-plane priority class.
        """
        fm = self.fault_model
        cap = self.capacity
        now = self.engine.now
        attempts = 1
        faults = retries = 0
        link_ok = None
        if fm is not None or cap is not None:
            if self.healing is not None:
                attempts = self.healing.LOOKUP_ATTEMPTS
            net = self.network
            blocked: Set[tuple] = set()

            def link_ok(u: int, v: int) -> bool:
                nonlocal faults
                if (u, v) in blocked:
                    return False
                if fm is not None and fm.drop(u, v, kind, now):
                    blocked.add((u, v))
                    faults += 1
                    return False
                if cap is not None:
                    admitted = cap.offer(u, v, kind, now)
                    net.account_logical(u, v, kind, admitted)
                    if not admitted:
                        blocked.add((u, v))
                        return False
                return True

        for attempt in range(attempts):
            result = self._walk(start, target_id, link_ok)
            if result.success:
                break
            retries = min(attempt + 1, attempts - 1)
        self.fault_retries += retries

        tel = self.telemetry
        if tel.enabled:
            m = tel.metrics
            m.counter("lookups_total", system=self.name).inc()
            if not result.success:
                m.counter("lookups_failed_total", system=self.name).inc()
            m.histogram("lookup_hops", system=self.name).observe(result.hops)
            if faults:
                m.counter(
                    "faults_injected_total", site="lookup", system=self.name
                ).inc(faults)
            if retries:
                m.counter("retries_total", system=self.name, kind="lookup").inc(retries)
            tel.event(
                "lookup",
                t=now,
                start=start,
                hops=result.hops,
                ok=result.success,
            )
            if tel.tracing and retries:
                tel.event(
                    "retry", t=now, kind="lookup", start=start,
                    attempts=retries + 1, faults=faults, ok=result.success,
                )
        return result

    def _walk(self, start: int, target_id: int, link_ok=None) -> LookupResult:
        """One greedy walk over the current routing tables along
        perceived liveness — no gate of its own, no telemetry."""
        nodes = self.nodes
        return greedy_route(
            self.space,
            target_id,
            start,
            nodes[start].node_id,
            ring_of=lambda a: nodes[a].rt.ring(),
            is_alive=self.liveness,
            max_hops=self.config.MAX_LOOKUP_HOPS,
            link_ok=link_ok,
        )

    def rendezvous_of(self, topic: int) -> Optional[int]:
        """Ground truth: the live node circularly closest to hash(topic)."""
        live = self.live_addresses()
        if not live:
            return None
        tid = self.topic_id(topic)
        size = self.space.size
        half = size >> 1
        nodes = self.nodes
        best = None
        best_key = None
        for a in live:
            d = (nodes[a].node_id - tid) % size
            if d > half:
                d = size - d
            key = (d, a)
            if best_key is None or key < best_key:
                best, best_key = a, key
        return best

    # ------------------------------------------------------------------
    # Publishing (strategy hook)
    # ------------------------------------------------------------------
    def publish(self, topic: int, publisher: int) -> DisseminationRecord:
        """Publish one event and return its dissemination record."""
        self._event_counter += 1
        rec = self._disseminate(topic, publisher, self._event_counter)
        if rec.retries:
            self.fault_retries += rec.retries
        if rec.deferred:
            self.backpressure_deferred += rec.deferred
        tel = self.telemetry
        if tel.enabled:
            m = tel.metrics
            # The four unconditional counters resolve to the same label
            # set on every publish — look them up once per registry.
            pc = self._pub_counters
            if pc is None or pc[0] is not m:
                pc = self._pub_counters = (
                    m,
                    m.counter("events_published_total", system=self.name),
                    m.counter("deliveries_total", system=self.name),
                    m.counter("delivery_msgs_total", system=self.name),
                    m.counter("relay_msgs_total", system=self.name),
                )
            relay = rec.total_relay_messages
            msgs = relay + sum(rec.interested_msgs.values())
            pc[1].inc()
            pc[2].inc(rec.n_delivered)
            pc[3].inc(msgs)
            pc[4].inc(relay)
            if rec.faults:
                m.counter(
                    "faults_injected_total", site="dissemination", system=self.name
                ).inc(rec.faults)
            if rec.retries:
                m.counter("retries_total", system=self.name, kind="delivery").inc(rec.retries)
            if tel.tracing and rec.faults:
                tel.event(
                    "fault", t=self.engine.now, site="dissemination",
                    topic=topic, n=rec.faults,
                )
            if tel.tracing and rec.retries:
                tel.event(
                    "retry", t=self.engine.now, kind="delivery",
                    topic=topic, n=rec.retries,
                )
            if tel.tracing:
                hops = rec.delivered_hops.values()
                # The span tree's trace id joins this summary event to
                # the per-hop span/miss records of the same event.
                extra = {"trace": rec.trace_id} if rec.trace_id is not None else {}
                tel.event(
                    "delivery",
                    t=self.engine.now,
                    topic=topic,
                    publisher=publisher,
                    subs=rec.n_subscribers,
                    delivered=rec.n_delivered,
                    max_hop=max(hops) if rec.delivered_hops else 0,
                    msgs=msgs,
                    relay_msgs=relay,
                    **extra,
                )
        return rec

    def _disseminate(
        self, topic: int, publisher: int, event_id: int
    ) -> DisseminationRecord:
        """Grade one event with the oracle BFS over the current overlay
        (OPT floods its own topic overlay instead)."""
        return disseminate(self, topic, publisher, event_id)

    def publisher_targets(
        self, publisher: int, topic: int
    ) -> Tuple[Collection[int], List[int]]:
        """Whom a publisher notifies first, as ``(targets,
        injection_path)`` (strategy hook: Vitis publishers start inside
        their cluster, RVR routes them to the rendezvous)."""
        return default_publisher_targets(self, publisher, topic)

    # ------------------------------------------------------------------
    # Analysis helpers
    # ------------------------------------------------------------------
    def successor_map(self) -> Dict[int, Optional[int]]:
        """address → successor address (for ring-convergence checks)."""
        out: Dict[int, Optional[int]] = {}
        for a in self.live_addresses():
            succ = self.nodes[a].rt.successor()
            out[a] = succ.address if succ is not None else None
        return out

    def ids_by_address(self) -> Dict[int, int]:
        return {a: self.nodes[a].node_id for a in self.live_addresses()}

    def gateways_of(self, topic: int) -> List[int]:
        """Live nodes currently considering themselves gateway for topic."""
        out = []
        for a in self.sub_index.get(topic, ()):
            n = self.nodes[a]
            if n.alive:
                p = n.gw_state.proposals.get(topic)
                if p is not None and p.gw_addr == a:
                    out.append(a)
        return sorted(out)

    def cluster_adjacency(self, topic: int) -> Dict[int, Set[int]]:
        """Symmetric adjacency among the live subscribers of ``topic``.

        ``u — v`` iff either has the other in its routing table: profile
        messages flow along routing-table edges, so both endpoints know of
        each other and of their shared interest, and either can notify the
        other.  Cached per topology version.
        """
        cached = self._cluster_cache.get(topic)
        if cached is not None and cached[0] == self.topology_version:
            return cached[1]
        members = self.subscribers(topic)
        adj: Dict[int, Set[int]] = {a: set() for a in members}
        nodes = self.nodes
        get = adj.get
        for a in members:
            mine = adj[a]
            for baddr, _ in nodes[a].rt.links():
                theirs = get(baddr)
                if theirs is not None:
                    mine.add(baddr)
                    theirs.add(a)
        self._cluster_cache[topic] = (self.topology_version, adj)
        return adj


class OverlayProtocolBase(OverlaySystem):
    """An :class:`OverlaySystem` driven in PeerSim-style global cycles
    (constructor parameters are the base's)."""

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.driver = CycleDriver(
            self.engine, self._cycle_step, self.config.gossip_period,
            telemetry=self.telemetry,
        )

    def run_cycles(self, n: int) -> None:
        """Advance ``n`` gossip cycles (engine events interleave)."""
        self.driver.run_cycles(n)

    @property
    def cycle(self) -> int:
        return self.driver.cycle

    def _cycle_step(self, cycle: int) -> None:
        self.topology_version += 1
        live = [self.nodes[a] for a in self.live_addresses()]
        self._rng.shuffle(live)
        self._protocol_round(cycle, live)

    def _protocol_round(self, cycle: int, live: List[VitisNode]) -> None:  # pragma: no cover
        raise NotImplementedError

    def _record_gossip_cycle(
        self, cycle: int, live: int, ps_ok: int, tman_ok: int, evicted: int
    ) -> None:
        """Fold one cycle's gossip-layer activity into the telemetry:
        exchange counts per substrate and view churn (heartbeat evictions)."""
        m = self.telemetry.metrics
        m.counter("gossip_ps_exchanges_total", system=self.name).inc(ps_ok)
        m.counter("gossip_tman_exchanges_total", system=self.name).inc(tman_ok)
        m.counter("rt_evictions_total", system=self.name).inc(evicted)
        m.gauge("live_nodes", system=self.name).set(live)
        self.telemetry.event(
            "gossip_exchange",
            t=self.engine.now,
            cycle=cycle,
            live=live,
            ps=ps_ok,
            tman=tman_ok,
            evicted=evicted,
        )


class VitisProtocol(OverlayProtocolBase):
    """A complete Vitis system (paper section III).

    Attributes
    ----------
    election_every:
        Run a gateway-election round every ``n`` cycles (1 = every cycle,
        the faithful setting used under churn; 0 = only via
        :meth:`finalize`, the fast path for static topologies).
    relay_every:
        Same for relay-path installation.
    """

    name = "vitis"

    def __init__(
        self,
        *args,
        election_every: int = 1,
        relay_every: int = 1,
        sampler_cls=None,
        **kwargs,
    ):
        self._sampler_cls = sampler_cls
        self._election_rounds = 0
        super().__init__(*args, **kwargs)
        self.election_every = election_every
        self.relay_every = relay_every

    def _make_node(self, address: int, subscriptions: FrozenSet[int]) -> VitisNode:
        node = super()._make_node(address, subscriptions)
        if self._sampler_cls is not None:
            node.sampler_cls = self._sampler_cls
            node.ps = self._sampler_cls(
                node.address, node.node_id, self.config.PEER_VIEW_SIZE, node.rng
            )
        return node

    # ------------------------------------------------------------------
    # One cycle (Alg. 1 line 5-7 over the population)
    # ------------------------------------------------------------------
    def _protocol_round(self, cycle: int, live: List[VitisNode]) -> None:
        tel = self.telemetry
        ps_registry = {n.address: n.ps for n in self.nodes.values() if n.alive}
        n_live = max(2, len(live))
        ps_ok = tman_ok = evicted = 0
        liveness = self.liveness
        for node in live:
            node.n_estimate = n_live
            if node.ps.step(ps_registry, liveness) is not None:
                ps_ok += 1
        for node in live:
            if node.tman_step(self.nodes.get, liveness, self.profile_of) is not None:
                tman_ok += 1
        det = self.detector
        if det is not None:
            det.step(self.engine.now, live)
        evicted = self._heartbeat_round(live)
        if tel.enabled:
            self._record_gossip_cycle(cycle, len(live), ps_ok, tman_ok, evicted)
        if self.election_every and (cycle % self.election_every == 0):
            self.election_round()
        if self.relay_every and (cycle % self.relay_every == 0):
            self.install_relays()
        elif self.healing is not None:
            # No full reinstall this cycle — repair just the severed trees.
            self.repair_relays()

    def _heartbeat_round(self, live: List[VitisNode]) -> int:
        """Run every live node's heartbeat; returns total evictions.

        With a fault model attached, the "profile message came back"
        predicate of ``age_and_evict`` is itself subject to loss: a
        heartbeat the model eats ages the entry as if the neighbor were
        silent.  A partitioned neighbor therefore gets evicted within
        ``STALENESS_THRESHOLD`` cycles, exactly like a dead one; an i.i.d.
        loss model merely delays the age reset now and then.

        With a capacity model attached, each heartbeat is one control
        message charged to the *neighbor's* bounded inbox (hubs pay for
        their in-degree); one the inbox sheds is a heartbeat that never
        arrived, so the entry ages.  The fault gate models the reply
        being lost (``drop(b, src)``), the capacity gate the request
        landing (``offer(src, b)``).
        """
        fm = self.fault_model
        cap = self.capacity
        det = self.detector
        if fm is None and cap is None and det is None:
            return sum(len(node.heartbeat_step(self.is_alive)) for node in live)
        now = self.engine.now
        is_alive = self.is_alive
        net = self.network
        hb_faults = 0
        if det is not None:
            # SWIM replaces the heartbeat timeout as the liveness source:
            # suspicion precedes eviction, so entries survive lossy
            # heartbeats (no fault dice rolled here) and only
            # detector-confirmed nodes age out — the backstop that
            # re-purges stale descriptors gossip re-admits after the
            # confirmation-time global purge.
            confirmed = det.confirmed

            def answered(src: int, b: int) -> bool:
                return not confirmed(b)
        else:

            def answered(src: int, b: int) -> bool:
                nonlocal hb_faults
                if not is_alive(b):
                    return False
                if fm is not None and fm.drop(b, src, "heartbeat", now):
                    hb_faults += 1
                    return False
                if cap is not None:
                    admitted = cap.offer(src, b, "heartbeat", now)
                    net.account_logical(src, b, "heartbeat", admitted)
                    if not admitted:
                        return False
                return True

        evicted = 0
        for node in live:
            src = node.address
            gone = node.heartbeat_step(partial(answered, src))
            evicted += len(gone)
            for b in gone:
                self._note_eviction(src, b)
        tel = self.telemetry
        if hb_faults and tel.enabled:
            tel.metrics.counter(
                "faults_injected_total", site="heartbeat", system=self.name
            ).inc(hb_faults)
        return evicted

    # ------------------------------------------------------------------
    # Gateway election (Alg. 5, two-phase so all nodes read round t-1)
    # ------------------------------------------------------------------
    def election_round(self) -> None:
        tel = self.telemetry
        stats = ElectionStats() if tel.enabled else None
        results = {}
        # Per-round snapshots, built once instead of once per (topic,
        # neighbor) pair: last-known subscriptions (stale for dead nodes,
        # matching profile_of) and previous-round proposals (reads stay
        # two-phase — every node sees round t-1 state because commits
        # happen only after all elect_round calls return).
        subs_of = {a: n.profile.subscriptions for a, n in self.nodes.items()}
        proposals_of = {a: n.gw_state.proposals for a, n in self.nodes.items()}
        nodes = self.nodes
        for a in self.live_addresses():
            node = nodes[a]
            results[a] = elect_round(
                self.space,
                node.gw_state,
                node.profile.subscriptions,
                node.rt,
                neighbor_subscriptions=subs_of.__getitem__,
                neighbor_proposals=proposals_of,
                topic_ids=self.topic_id,
                depth=self.config.gateway_depth,
                stats=stats,
            )
        changed = 0
        if stats is not None and tel.tracing:
            # Proposals that differ from last round — 0 means the Alg. 5
            # fixed point is reached (only computed while tracing).
            for a, proposals in results.items():
                old = self.nodes[a].gw_state.proposals
                changed += sum(1 for t, p in proposals.items() if old.get(t) != p)
        for a, proposals in results.items():
            self.nodes[a].gw_state.commit(proposals)
        if stats is not None:
            self._election_rounds += 1
            m = tel.metrics
            m.counter("election_rounds_total").inc()
            m.counter("election_adoptions_total").inc(stats.adoptions)
            tel.event(
                "election",
                t=self.engine.now,
                round=self._election_rounds,
                live=len(results),
                proposals=stats.proposals,
                adoptions=stats.adoptions,
                self_proposals=stats.self_proposals,
                changed=changed,
            )

    # ------------------------------------------------------------------
    # Relay paths (Alg. 5 line 21 + section III-B)
    # ------------------------------------------------------------------
    def _install_with_spans(self, topic: int, gw: int, lr, tables) -> bool:
        """Install one gateway's relay path, recording the walk as spans.

        Under ``telemetry.tracing`` every ``RequestRelay`` installation
        gets its own trace (ids prefixed ``i``) of chained lookup-step
        spans covering exactly the installed prefix of the walk (grafted
        walks stop early); untraced runs take the plain call.
        """
        tel = self.telemetry
        if not tel.tracing:
            return install_path(topic, lr, tables, self.relay_stats)
        from repro.obs.spans import HOP_LOOKUP, SpanRecorder

        spans = SpanRecorder(tel, tel.next_trace_id("i"), self.engine.now)
        state = {
            "parent": spans.root(HOP_LOOKUP, gw, topic=topic, gateway=gw),
            "hop": 0,
        }

        def on_hop(u: int, v: int) -> None:
            state["hop"] += 1
            state["parent"] = spans.hop(state["parent"], HOP_LOOKUP, u, v, state["hop"])

        return install_path(topic, lr, tables, self.relay_stats, on_hop=on_hop)

    def _reinstall(self, topics: Iterable[int], wiped: bool = False) -> None:
        """Rebuild the relay trees of ``topics`` from their current
        gateways: tear each topic's relay state down across the
        population (``wiped``: the caller just cleared every table), run
        one ``RequestRelay`` lookup per gateway and install its path.
        A sanctioned topology write: opens a fresh ``topology_version``.
        """
        tables = {a: n.relay for a, n in self.nodes.items()}
        for topic in topics:
            if not wiped:
                clear_topic(topic, tables.values())
                self.relay_stats.rendezvous.pop(topic, None)
            tid = self.topic_id(topic)
            for gw in self.gateways_of(topic):
                lr = self.lookup(gw, tid, kind="relay_install")
                self._install_with_spans(topic, gw, lr, tables)
        self.topology_version += 1

    def install_relays(self) -> RelayStats:
        """Clear and rebuild every relay tree from the current gateways.

        Returns the accumulated :class:`RelayStats` for this installation.
        """
        tel = self.telemetry
        teardowns = 0
        if tel.enabled:
            teardowns = sum(
                1 for n in self.nodes.values() if n.relay.parent or n.relay.children
            )
        for n in self.nodes.values():
            n.relay.clear()
        self.relay_stats.reset()
        self._reinstall(self.topics(), wiped=True)
        if tel.enabled:
            stats = self.relay_stats
            m = tel.metrics
            m.counter("relay_installs_total").inc(stats.paths_installed)
            m.counter("relay_grafts_total").inc(stats.grafts)
            m.counter("relay_failed_lookups_total").inc(stats.failed_lookups)
            m.counter("relay_teardowns_total").inc(teardowns)
            tel.event(
                "relay_install",
                t=self.engine.now,
                teardowns=teardowns,
                **stats.as_dict(),
            )
        return self.relay_stats

    def finalize(self) -> None:
        """Converge the election and install relay paths once.

        Proposals spread one hop per round, so ``gateway_depth + 1`` rounds
        reach the Alg. 5 fixed point on a static topology.
        """
        for _ in range(self.config.gateway_depth + 1):
            self.election_round()
        self.install_relays()

    # ------------------------------------------------------------------
    # Self-healing (docs/robustness.md): repair severed relay trees
    # ------------------------------------------------------------------
    def repair_relays(self) -> int:
        """Detect and repair relay trees broken by crashes or partitions.

        A topic's tree is broken when some node's parent pointer or the
        recorded rendezvous is dead or severed (partitioned away).  For
        each broken topic the stale relay state is torn down and the
        bounded-depth election + lookup re-run: stale proposals pointing
        at unreachable gateways are purged first (``GatewayState.
        drop_dead``), then — when the per-cycle election is not running —
        ``gateway_depth + 1`` election rounds restore the Alg. 5 fixed
        point before the paths are re-installed.  Returns the number of
        topics repaired.
        """
        fm = self.fault_model
        # Perceived liveness: with a detector attached, confirmed-dead
        # nodes count as unreachable so their trees are repaired too.
        is_alive = self.liveness
        if fm is None:
            reachable = lambda u, v: is_alive(v)
        else:
            now = self.engine.now
            reachable = lambda u, v: is_alive(v) and not fm.severed(u, v, now)

        broken: Set[int] = set()
        live = self.live_addresses()
        for a in live:
            relay = self.nodes[a].relay
            broken.update(relay.broken_parents(reachable))
            relay.prune_children(reachable)
        for topic, rv in list(self.relay_stats.rendezvous.items()):
            # A dead rendezvous, or a stale one: the recorded root is no
            # longer a local minimum for hash(topic) — some reachable
            # neighbor sits strictly closer (e.g. after a partition heals,
            # the other half's closer nodes become visible again).
            # Re-rooting the tree there is what merges per-partition trees
            # back into one.
            node = self.nodes[rv]
            if not is_alive(rv) or any(
                reachable(rv, naddr)
                for naddr, _ in closer_first(
                    node.rt.ring(), self.space, self.topic_id(topic), node.node_id
                )
            ):
                broken.add(topic)
        broken = {t for t in broken if self.subscribers(t)}
        if not broken:
            return 0

        purged = 0
        for a in live:
            purged += len(self.nodes[a].gw_state.drop_dead(is_alive))
        if not self.election_every:
            for _ in range(self.config.gateway_depth + 1):
                self.election_round()

        self._reinstall(sorted(broken))

        repaired = len(broken)
        self.fault_repairs += repaired
        tel = self.telemetry
        if tel.enabled:
            tel.metrics.counter("repairs_total", system=self.name).inc(repaired)
            if tel.tracing:
                tel.event(
                    "repair",
                    t=self.engine.now,
                    topics=repaired,
                    purged_proposals=purged,
                )
        return repaired

    # ------------------------------------------------------------------
    # Graceful rejoin (docs/robustness.md): crash → return without a
    # cold start
    # ------------------------------------------------------------------
    def rejoin(self, address: int) -> None:
        """Bring a crashed node back and restore its protocol state.

        Bootstrap re-entry and subscription recovery come from the base
        class (the profile survives the crash); on top, the relay trees
        of the returning node's topics are torn down and re-installed from
        their current gateways, so the subscriber is stitched back into
        dissemination immediately instead of waiting for the next full
        install or repair cycle.
        """
        super().rejoin(address)
        node = self.nodes[address]
        topics = sorted(
            t for t in node.profile.subscriptions if self.subscribers(t)
        )
        if not topics:
            return
        self._reinstall(topics)
        tel = self.telemetry
        if tel.enabled and tel.tracing:
            tel.event(
                "rejoin_reinstall", t=self.engine.now, addr=address,
                topics=len(topics),
            )


def _normalize_subscriptions(subscriptions: SubscriptionMap) -> Dict[int, FrozenSet[int]]:
    if isinstance(subscriptions, Mapping):
        items = subscriptions.items()
    else:
        items = enumerate(subscriptions)
    out = {int(a): frozenset(int(t) for t in subs) for a, subs in items}
    if not out:
        raise ValueError("need at least one node")
    return out
