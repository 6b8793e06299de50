"""Message-driven Vitis deployment mode.

:class:`repro.core.protocol.VitisProtocol` runs the protocol cycle-driven,
the PeerSim ``cdsim`` idiom the paper's evaluation uses.  This module runs
the *same* protocol the way a deployment would (PeerSim ``edsim``):

- every interaction is a real :class:`~repro.sim.messages.Message` through
  the network, subject to a pluggable latency model;
- each node runs on its own periodic timer with phase jitter — there are
  no global rounds and no shared state reads;
- gateway proposals are piggybacked on the periodic profile messages,
  exactly as the paper describes (Alg. 5/6): elections run against the
  *last received* neighbor state, not live state;
- heartbeats are real: a routing-table entry's age resets only when a
  message from that neighbor arrives, and relay state expires unless the
  responsible gateway keeps refreshing it.

Measurement remains omniscient (the simulator grades delivery against
ground-truth subscriptions), but protocol decisions use only information
that actually travelled in messages.

:class:`DeployedVitis` is an :class:`~repro.core.protocol.OverlaySystem`
like the cycle-driven protocols, so the oracle dissemination and the
measurement helpers work unchanged — and the test suite can assert the
deployed mode converges to the same overlay invariants as the cycle mode.

**The host surface.**  A :class:`DeployedVitisNode` knows nothing of
engines or sockets.  It is built from its host's ``space`` / ``config`` /
``utility`` / ``seeds`` and from then on talks to it only through:

- ``now`` — seconds on the host's clock;
- ``send(msg)`` — hand one :mod:`repro.sim.messages` message to the wire;
- ``backpressured(addr)`` — True when the caller should defer traffic
  toward ``addr`` (the host counts the deferral);
- ``start_timer(period, rng, fn)`` — a phase-jittered periodic task with
  a ``stop()``;
- ``is_alive(addr)``, ``topic_id(topic)``, ``profile_of(addr)`` — the
  liveness predicate, ``hash(topic)`` and the fallback ranking profile;
- ``span(trace, kind, src, dst, hop, **fields)`` and ``deliver(msg)`` —
  the notification hand-off: record one causal span (returns its id, or
  None when untraced) and accept one event for the local subscriber.

Two hosts implement it: :class:`DeployedVitis` on the simulator's virtual
clock and :class:`repro.net.node.LiveNodeHost` on asyncio and UDP.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Optional

from repro.core.config import VitisConfig
from repro.core.dissemination import forwarding_rule
from repro.core.gateway import Proposal, elect_round
from repro.core.node import VitisNode
from repro.core.profile import NodeProfile
from repro.core.protocol import OverlaySystem
from repro.core.utility import PublicationRates
from repro.gossip.view import Descriptor
from repro.obs.spans import (
    HOP_DELIVER,
    HOP_FLOOD,
    HOP_LOOKUP,
    HOP_PUBLISH,
    HOP_RELAY,
    HOP_RENDEZVOUS,
)
from repro.sim.engine import start_periodic
from repro.sim.messages import (
    Notification,
    ProfileMessage,
    PsExchangeReply,
    PsExchangeRequest,
    RelayInstall,
    RtExchangeReply,
    RtExchangeRequest,
)
from repro.sim.network import LatencyModel
from repro.smallworld.routing import LookupResult, closer_first

__all__ = ["DeployedVitis", "DeployedVitisNode", "NeighborInfo"]


@dataclass
class NeighborInfo:
    """What a node has learned about a neighbor from its profile messages."""

    subscriptions: FrozenSet[int] = frozenset()
    version: int = -1
    proposals: Dict[int, Proposal] = field(default_factory=dict)
    #: Host time of the neighbor's last profile *request*: it sends one
    #: every period to each of its table entries, so a recent stamp
    #: names an in-neighbor of the routing-table graph.
    requested: float = float("-inf")


class DeployedVitisNode(VitisNode):
    """A Vitis node driven entirely by messages and its own timer, on
    whatever host implements the surface in the module docstring."""

    __slots__ = ("host", "neighbor_state", "relay_stamp", "child_stamp", "_task")

    #: Per-period probability that a gateway re-evaluates its relay path
    #: from scratch (path repair; see ``_start_relay_install``).
    REROUTE_P = 0.15

    #: Hard bound on notification forwarding depth (loop safety net on
    #: top of per-event dedup; greedy legs are distance-decreasing and
    #: flood/tree legs are deduped, so this should never bind).
    MAX_HOPS = 96

    def __init__(self, host, address: int, subscriptions) -> None:
        super().__init__(
            address,
            host.space.node_id(address),
            subscriptions,
            host.config,
            host.space,
            host.utility,
            host.seeds.pyrandom("node", address),
        )
        self.host = host
        #: address → NeighborInfo, fed exclusively by received messages.
        self.neighbor_state: Dict[int, NeighborInfo] = {}
        #: topic → host time the relay entry was last refreshed.
        self.relay_stamp: Dict[int, float] = {}
        #: (topic, child) → last refresh; children expire individually,
        #: else every path that ever crossed this node stays on the tree.
        self.child_stamp: Dict[tuple, float] = {}
        self._task = None

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def deploy(self, bootstrap: List[Descriptor]) -> None:
        """Join and start the periodic protocol timer (phase-jittered)."""
        self.join(bootstrap)  # also empties the utility memo
        self.neighbor_state.clear()
        self.relay_stamp.clear()
        self.child_stamp.clear()
        if self._task is not None:
            self._task.stop()
        self._task = self.host.start_timer(
            self.config.gossip_period, self.rng, self._tick
        )

    def undeploy(self) -> None:
        """Crash: stop the timer and go silent."""
        if self._task is not None:
            self._task.stop()
            self._task = None
        self.stop()

    # ------------------------------------------------------------------
    # Periodic protocol tick (Alg. 1 lines 5-7, one node's view)
    # ------------------------------------------------------------------
    def _tick(self) -> Optional[bool]:
        if not self.alive:
            return False
        host = self.host
        send = host.send
        now = host.now

        # --- peer sampling: active Newscast exchange -------------------
        self.ps.view.age_all()
        self.ps.view.drop_older_than(self.ps.max_age)
        peer = self.ps.view.random_descriptor(self.rng)
        if peer is not None:
            send(
                PsExchangeRequest(
                    src=self.address, dst=peer.address, view=self._view_triples()
                )
            )

        # --- T-Man: active routing-table exchange (Alg. 2) -------------
        target = self._pick_exchange_peer(host.is_alive)
        if target is not None:
            send(
                RtExchangeRequest(
                    src=self.address,
                    dst=target,
                    buffer=list(self._exchange_pool().values()),
                )
            )

        # --- heartbeats: age entries, evict the silent ------------------
        # Ages are reset by *received* messages (see on_message); here
        # every entry ages one period and stale ones are evicted.
        for gone in self.heartbeat_step(lambda a: False):
            self._learn(gone, None)

        # --- election against last-received neighbor state (Alg. 5) ----
        known = self.neighbor_state
        self.gw_state.commit(elect_round(
            self.space,
            self.gw_state,
            self.profile.subscriptions,
            self.rt,
            neighbor_subscriptions=self._known_subs,
            neighbor_proposals={
                a: known[a].proposals for a in self.rt.by_address() if a in known
            },
            topic_ids=host.topic_id,
            depth=self.config.gateway_depth,
        ))

        # --- profile/heartbeat messages with piggybacked proposals ------
        # Alg. 6/7 is request/response: the neighbor's reply is what
        # resets its age (a one-way routing-table edge would otherwise
        # never hear back from a neighbor that does not link to us).
        # A backpressured neighbor is skipped this period (re-batched
        # next tick) rather than stuffed — the entry keeps aging, so a
        # neighbor saturated for STALENESS_THRESHOLD periods is evicted
        # like a silent one.
        payload = self._profile_payload(is_reply=False)
        backpressured = host.backpressured
        for entry in self.rt:
            if backpressured(entry.address):
                continue
            send(ProfileMessage(src=self.address, dst=entry.address, profile=payload))

        # --- relay maintenance ------------------------------------------
        ttl = self.config.STALENESS_THRESHOLD * self.config.gossip_period
        for (topic, child), stamp in list(self.child_stamp.items()):
            if now - stamp > ttl:
                kids = self.relay.children.get(topic)
                if kids is not None:
                    kids.discard(child)
                    if not kids:
                        del self.relay.children[topic]
                del self.child_stamp[(topic, child)]
        for topic in list(self.relay_stamp):
            if now - self.relay_stamp[topic] > ttl:
                self.relay.drop_topic(topic)
                self.relay_stamp.pop(topic, None)
                for key in [k for k in self.child_stamp if k[0] == topic]:
                    del self.child_stamp[key]
        for topic in self.gw_state.gateway_topics():
            # Gateways (re-)request their relay path every period
            # (Alg. 5 line 21); grafting keeps the cost low.
            self._start_relay_install(topic)
        return True

    def _profile_payload(self, is_reply: bool) -> tuple:
        """The wire form of a profile message: subscriptions, version,
        piggybacked gateway proposals, and the request/reply flag."""
        return (
            frozenset(self.profile.subscriptions),
            self.profile.version,
            self.gw_state.proposals,
            is_reply,
        )

    def _known_subs(self, address: int) -> FrozenSet[int]:
        info = self.neighbor_state.get(address)
        return info.subscriptions if info is not None else frozenset()

    # ------------------------------------------------------------------
    # Relay installation by message hops
    # ------------------------------------------------------------------
    def _start_relay_install(self, topic: int) -> None:
        host = self.host
        target_id = host.topic_id(topic)
        self.relay_stamp[topic] = host.now
        # Sticky paths (Scribe-style maintenance): keep the current parent
        # while it lives; recomputing every period would re-route the
        # branch whenever a small-world link rotates and litter the
        # overlay with decaying stale branches.  A small re-route
        # probability repairs paths that were installed while the overlay
        # was still converging (long detours) without reintroducing the
        # churn of always-recompute.
        nxt = self.relay.parent.get(topic)
        if nxt is not None and self.rng.random() < self.REROUTE_P:
            nxt = None
        if nxt is None or not host.is_alive(nxt):
            nxt = self._next_hop(target_id)
            if nxt is None:
                return  # this node is the rendezvous of its own topic
        self.relay.set_parent(topic, nxt)
        if host.backpressured(nxt):
            # Defer the refresh to the next period: the parent pointer is
            # already set and the stamp above keeps our own entry alive,
            # so nothing is lost by not pushing into a saturated inbox.
            return
        host.send(
            RelayInstall(
                src=self.address, dst=nxt, topic=topic,
                target_id=target_id, origin=self.address, hops=1,
            )
        )

    def _next_hop(self, target_id: int) -> Optional[int]:
        """The routing-table neighbor nearest ``target_id`` among those
        strictly closer than this node, if any — whether or not it is
        alive: a node only learns of a dead neighbor by its silence."""
        step = closer_first(self.rt.ring(), self.space, target_id, self.node_id)
        return next(step, (None, None))[0]

    def _on_relay_install(self, msg: RelayInstall) -> None:
        now = self.host.now
        self.relay.add_child(msg.topic, msg.src)
        self.child_stamp[(msg.topic, msg.src)] = now
        self.relay_stamp[msg.topic] = now
        if msg.hops >= self.config.MAX_LOOKUP_HOPS:
            return
        existing = self.relay.parent.get(msg.topic)
        if existing is not None and self.host.is_alive(existing):
            # Graft onto the existing branch — but keep forwarding along
            # it so the whole path to the rendezvous stays refreshed
            # (otherwise deep tree segments would expire between grafts).
            nxt = existing
        else:
            nxt = self._next_hop(msg.target_id)
            if nxt is None:
                return  # rendezvous reached
            self.relay.set_parent(msg.topic, nxt)
        self.host.send(
            RelayInstall(
                src=self.address, dst=nxt, topic=msg.topic,
                target_id=msg.target_id, origin=msg.origin, hops=msg.hops + 1,
            )
        )

    # ------------------------------------------------------------------
    # Message dispatch
    # ------------------------------------------------------------------
    def on_message(self, msg) -> None:
        # Any message doubles as a heartbeat (Alg. 7), handled or not.
        self.rt.heartbeat(msg.src)
        handler = self._HANDLERS.get(type(msg))
        if handler is not None:
            handler(self, msg)

    def _on_ps_request(self, msg: PsExchangeRequest) -> None:
        reply = self._view_triples()
        self._merge_view(msg.view)
        self.host.send(PsExchangeReply(src=self.address, dst=msg.src, view=reply))

    def _on_ps_reply(self, msg: PsExchangeReply) -> None:
        self._merge_view(msg.view)

    def _on_rt_request(self, msg: RtExchangeRequest) -> None:
        # Two buffers, two sampler draws: one is shipped back, the
        # other is merged into.  Seeded deployed trajectories depend
        # on both draws, so the buffers must not be shared.
        reply = list(self._exchange_pool().values())
        self._merge_and_select(self._exchange_pool(), msg.buffer, self._profile_from_state)
        self.host.send(RtExchangeReply(src=self.address, dst=msg.src, buffer=reply))

    def _on_rt_reply(self, msg: RtExchangeReply) -> None:
        self._merge_and_select(self._exchange_pool(), msg.buffer, self._profile_from_state)

    def _on_profile(self, msg: ProfileMessage) -> None:
        subs, version, proposals, is_reply = msg.profile
        info = self.neighbor_state.get(msg.src)
        if info is None or info.version != version:
            info = self._learn(msg.src, NeighborInfo(subs, version))
        info.proposals = proposals
        if not is_reply:
            info.requested = self.host.now
            self.host.send(
                ProfileMessage(
                    src=self.address,
                    dst=msg.src,
                    profile=self._profile_payload(is_reply=True),
                )
            )

    def _view_triples(self) -> List[tuple]:
        """The wire form of a Newscast exchange: the sampling view plus
        this node's own zero-age descriptor, as (address, node_id, age)."""
        addrs, ids, ages = self.ps.view.snapshot_fields()
        return [*zip(addrs, ids, ages), (self.address, self.node_id, 0)]

    def _merge_view(self, triples) -> None:
        """Fold a received Newscast view into the sampling view."""
        view = self.ps.view
        if triples:
            addrs, ids, ages = zip(*triples)
            view.merge_fields(addrs, ids, ages, exclude=self.address)
        view.trim(self.rng)

    def _learn(self, address: int, info: Optional[NeighborInfo]) -> Optional[NeighborInfo]:
        """Install (or, with None, forget) what was learned about
        ``address``.  Every write that changes ``_profile_from_state``'s
        answer goes through here, because here the address's memoised
        utility is dropped — the friend ranking never re-checks a hit."""
        self._umemo.pop(address, None)
        if info is None:
            self.neighbor_state.pop(address, None)
        else:
            self.neighbor_state[address] = info
        return info

    def _profile_from_state(self, address: int):
        """Friend ranking uses *learned* profiles only (asked on a
        utility-memo miss).

        Falls back to the system's ground truth when nothing was heard
        yet — matching the paper's assumption that exchanged descriptors
        carry enough profile summary to rank candidates.
        """
        info = self.neighbor_state.get(address)
        if info is not None and info.version >= 0:
            p = NodeProfile(address, self.space.node_id(address), info.subscriptions)
            # Align the version so utility caching keys stay precise.
            p.version = info.version
            return p
        return self.host.profile_of(address)

    # ------------------------------------------------------------------
    # Confirmed-peer purge (the healing path of a failure detector)
    # ------------------------------------------------------------------
    def evict_confirmed(self, address: int) -> None:
        """Forget a peer a failure detector confirmed dead: routing
        table, learned state, and every relay edge through it."""
        self.rt.remove(address)
        self._learn(address, None)
        for topic in [t for t, p in self.relay.parent.items() if p == address]:
            self.relay.drop_topic(topic)
            self.relay_stamp.pop(topic, None)
        for topic, kids in list(self.relay.children.items()):
            kids.discard(address)
            self.child_stamp.pop((topic, address), None)
            if not kids:
                del self.relay.children[topic]

    # ------------------------------------------------------------------
    # Node-local dissemination (section III-C from one node's view)
    # ------------------------------------------------------------------
    def publish(self, topic: int, event_id: int, trace: Optional[str], expected: int) -> None:
        """Inject one event as its publisher: root span, then the same
        forwarding rule every receiver applies.  ``expected`` is the
        audience size the root span advertises."""
        self.seen_events.add(event_id)
        sid = self.host.span(
            trace, HOP_PUBLISH, self.address, self.address, 0,
            topic=topic, event=event_id, publisher=self.address, subs=expected,
        )
        self._forward(
            topic, event_id, self.address, hops=1, exclude=None,
            trace=trace, parent_sid=sid, injecting=True,
        )

    def on_notification(self, msg: Notification) -> None:
        """First-receipt handler.  The transport dedups retransmits, not
        events, so the ``seen_events`` check is the protocol-level
        duplicate suppression."""
        if msg.event_id in self.seen_events:
            return
        self.seen_events.add(msg.event_id)
        host = self.host
        sid = trace = None
        if msg.span is not None:
            trace, parent, kind = msg.span
            sid = host.span(
                trace, kind, msg.src, self.address, msg.hops, parent=parent
            )
            if sid is None:
                trace = None  # untraced host: stop stamping forwards
        if msg.topic in self.profile.subscriptions and self.address != msg.publisher:
            host.span(
                trace, HOP_DELIVER, self.address, self.address, msg.hops, parent=sid
            )
            host.deliver(msg)
        if msg.hops < self.MAX_HOPS:
            self._forward(
                msg.topic, msg.event_id, msg.publisher, hops=msg.hops + 1,
                exclude=msg.src, trace=trace, parent_sid=sid,
            )

    def _forward(
        self,
        topic: int,
        event_id: int,
        publisher: int,
        hops: int,
        exclude: Optional[int],
        trace: Optional[str],
        parent_sid,
        injecting: bool = False,
    ) -> None:
        """Forward one event by :func:`~repro.core.dissemination.forwarding_rule`,
        the oracle's rule, over what this node has learned:

        - flood — when this node subscribes, to every learned neighbor
          that shares the topic and is a routing-table entry or sent a
          profile request within the freshness window (the in-neighbors
          the symmetric ``cluster_adjacency`` counts).  A publisher that
          does not subscribe starts at its table entries that do, as the
          oracle's ``default_publisher_targets`` does;
        - relay tree — to the topic's parent and children (``rendezvous``
          kind when dispatched by the tree root);
        - greedy rendezvous routing — when neither leaves anyone, one hop
          strictly closer to ``hash(topic)``, but only for the publisher's
          injection (Scribe-style) and its continuation by a node that
          neither subscribes nor sits on the tree.  A subscriber with
          nobody left to notify stops.
        """
        subscribed = topic in self.profile.subscriptions
        flood = (
            self._sharing(topic, in_neighbors=subscribed)
            if subscribed or injecting else ()
        )
        tree = self.relay.tree_neighbors(topic)
        greedy = (injecting or not subscribed) and hops <= self.config.MAX_LOOKUP_HOPS
        targets = forwarding_rule(
            self.address, flood, tree,
            (lambda: self._next_hop(self.host.topic_id(topic))) if greedy else None,
        )
        targets.discard(exclude)
        send = self.host.send
        for dst in targets:
            msg = Notification(
                src=self.address, dst=dst, topic=topic,
                event_id=event_id, hops=hops, publisher=publisher,
            )
            if trace is not None:
                msg.span = (trace, parent_sid, self._hop_kind(
                    topic, dst, flood, tree, subscribed, injecting
                ))
            send(msg)

    def _hop_kind(self, topic, dst, flood, tree, subscribed, injecting) -> str:
        """The span kind of one ``_forward`` edge: a subscriber's flood
        beats the tree (the cheaper explanation), a tree edge leaving the
        root is a rendezvous dispatch, and anything else is the
        publisher's injection or the greedy walk continuing it."""
        if subscribed and dst in flood:
            return HOP_FLOOD
        if dst in tree:
            relay = self.relay
            is_root = relay.parent.get(topic) is None and topic in relay.children
            return HOP_RENDEZVOUS if is_root else HOP_RELAY
        return HOP_PUBLISH if injecting else HOP_LOOKUP

    def _sharing(self, topic: int, in_neighbors: bool) -> List[int]:
        """The learned neighbors that share ``topic``: the routing-table
        entries and, with ``in_neighbors``, every address whose last
        profile request is at most ``STALENESS_THRESHOLD`` gossip periods
        old — the age at which a silent table entry is evicted."""
        table = self.rt.by_address()
        config = self.config
        horizon = self.host.now - config.STALENESS_THRESHOLD * config.gossip_period
        return [
            a for a, info in self.neighbor_state.items()
            if topic in info.subscriptions
            and (a in table or in_neighbors and info.requested >= horizon)
        ]

    #: Exact message class → handler; a kind not listed only resets the
    #: sender's heartbeat age.  Nothing subclasses a concrete kind.
    _HANDLERS = {
        PsExchangeRequest: _on_ps_request,
        PsExchangeReply: _on_ps_reply,
        RtExchangeRequest: _on_rt_request,
        RtExchangeReply: _on_rt_reply,
        ProfileMessage: _on_profile,
        RelayInstall: _on_relay_install,
        Notification: on_notification,
    }


class DeployedVitis(OverlaySystem):
    """A whole message-driven Vitis system, and the simulated host of its
    nodes (see the module docstring for the host surface).

    Population, oracle, attach and ``publish`` are the shared
    :class:`~repro.core.protocol.OverlaySystem`'s, so results are
    directly comparable with the cycle-driven
    :class:`~repro.core.protocol.VitisProtocol`; below is only what
    message mode does differently.
    """

    name = "vitis-deployed"
    # The stream name predates the shared base; renaming it would move
    # every seeded deployed-mode trajectory.
    _rng_stream = "system"

    def __init__(
        self,
        subscriptions,
        config: VitisConfig = VitisConfig(),
        seed: int = 0,
        rates: Optional[PublicationRates] = None,
        latency: Optional[LatencyModel] = None,
        auto_start: bool = True,
        telemetry=None,
    ) -> None:
        super().__init__(
            subscriptions, config, seed=seed, rates=rates,
            auto_start=auto_start, telemetry=telemetry,
        )
        # Joining only starts timers — nothing was sent yet, so the
        # latency model can be installed after the base built the network.
        if latency is not None:
            self.network.latency = latency
        #: event id → {subscriber: hops}, filled by the node-local flood
        #: (``DeployedVitisNode.publish``), never by the oracle ``publish``.
        self.delivered: Dict[int, Dict[int, int]] = {}
        self._span_seq = 0

    def _make_node(self, address: int, subscriptions: FrozenSet[int]) -> DeployedVitisNode:
        return DeployedVitisNode(self, address, subscriptions)

    # ------------------------------------------------------------------
    # Lifecycle and execution: per-node timers instead of global cycles
    # ------------------------------------------------------------------
    def join(self, address: int) -> None:
        self.nodes[address].deploy(
            self.bootstrap_descriptors(self.config.PEER_VIEW_SIZE, address)
        )

    def leave(self, address: int) -> None:
        self.nodes[address].undeploy()

    def run(self, seconds: float) -> None:
        """Advance simulated time; timers and messages interleave freely."""
        self.engine.run(until=self.engine.now + seconds)

    @property
    def topology_version(self) -> float:
        # Message mode has no cycle counter and nodes mutate their own
        # tables; time is the version, so the base's caches are shared
        # within one instant and dropped as soon as the clock moves.
        return self.engine.now

    def lookup(self, start: int, target_id: int) -> LookupResult:
        # Ungated and silent: this is the measuring oracle's walk, and
        # it must not consume the inbox capacity it is observing (the
        # protocol's own routing is ``RelayInstall`` messages).
        return self._walk(start, target_id)

    # ------------------------------------------------------------------
    # Host surface for DeployedVitisNode (virtual clock, simulated wire)
    # ------------------------------------------------------------------
    @property
    def now(self) -> float:
        return self.engine.now

    @property
    def send(self):
        # Resolved per call, not bound once: whoever wraps this
        # instance's ``network.send`` (traffic capture) must see every
        # message.
        return self.network.send

    def backpressured(self, address: int) -> bool:
        cap = self.capacity
        if cap is not None and cap.backpressured(address, self.engine.now):
            self.backpressure_deferred += 1
            return True
        return False

    def start_timer(self, period: float, rng, fn):
        return start_periodic(self.engine, period, rng, fn)

    def span(self, trace, kind, src, dst, hop, **fields):
        tel = self.telemetry
        if trace is None or not tel.tracing:
            return None
        self._span_seq += 1
        sid = self._span_seq
        tel.event(
            "span", t=self.engine.now, trace=trace, span=sid,
            kind=kind, src=src, dst=dst, hop=hop, **fields,
        )
        return sid

    def deliver(self, msg: Notification) -> None:
        self.delivered.setdefault(msg.event_id, {})[msg.dst] = msg.hops
