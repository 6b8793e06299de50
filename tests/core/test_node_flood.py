"""The node-local notification flood, under the simulator's virtual clock.

``DeployedVitisNode.publish`` / ``on_notification`` / ``_forward`` are the
code a live cluster runs on UDP (``repro.net.node`` only hosts it).  Here
the same class runs on :class:`DeployedVitis`, so the live path's
assertions — one publish root per event, complete span trees, every
reachable subscriber delivered exactly once — hold deterministically and
in a fraction of the six-process run's time.  To reproduce a live flood
bug, start here: plant the reported topology on three nodes and step it.

The node applies the oracle's :func:`~repro.core.dissemination.forwarding_rule`
to what it has learned, so on a frozen, zero-latency overlay whose learned
state is fresh (:func:`freeze`, :func:`refresh`) its flood
(:func:`node_flood`) is the message-level reference the fast path
:func:`~repro.core.dissemination.disseminate` is checked against.
"""

from collections import Counter

import pytest

from repro import obs
from repro.core.config import VitisConfig
from repro.core.deployment import DeployedVitis, DeployedVitisNode, NeighborInfo
from repro.core.dissemination import disseminate
from repro.core.gateway import Proposal
from repro.core.routing_table import LinkKind
from repro.gossip.view import Descriptor
from repro.obs.spans import build_span_trees
from repro.sim import messages as M
from repro.sim.messages import Notification, ProfileMessage
from repro.workloads.subscriptions import bucket_subscriptions
from tests.core.test_span_tracing import captured_telemetry, events_of

#: How long a profile request names its sender an in-neighbour.
WINDOW = VitisConfig.STALENESS_THRESHOLD * VitisConfig().gossip_period


# ----------------------------------------------------------------------
# The reference: the nodes' own flood on a frozen overlay
# ----------------------------------------------------------------------
def freeze(d):
    """Stop every node's timer and drain what is in flight: from here on
    the tables, the trees and the learned state only change by hand."""
    for node in d.nodes.values():
        if node._task is not None:
            node._task.stop()
    d.run(1)


def refresh(d):
    """Make every live node's learned state fresh for the frozen tables:
    let every profile-request stamp age out of the window, then deliver
    one round of profile requests along the routing-table edges, and the
    replies they draw, through the nodes' own handlers."""
    d.run(WINDOW + 1)
    for node in d.nodes.values():
        if node.alive:
            payload = node._profile_payload(is_reply=False)
            for entry in node.rt:
                d.network.send(
                    ProfileMessage(src=node.address, dst=entry.address, profile=payload)
                )
    d.run(0)


def node_flood(d, topic, publisher, event_id, trace=None):
    """One event through the nodes' own flood at zero latency, as the
    ``(delivered_hops, interested_msgs, relay_msgs)`` a
    :class:`~repro.sim.metrics.DisseminationRecord` reports: first-receipt
    hops of the subscribers, and every node's notification receipts split
    by the topic's subscription index."""
    net = d.network
    before = Counter(net.delivered_by_addr)
    expected = d.subscribers(topic) - {publisher}
    d.nodes[publisher].publish(topic, event_id, trace, len(expected))
    d.run(0)
    members = d.sub_index.get(topic, ())
    receipts = Counter(net.delivered_by_addr)
    receipts.subtract(before)
    interested = {a: n for a, n in receipts.items() if n and a in members}
    relay = {a: n for a, n in receipts.items() if n and a not in members}
    return dict(d.delivered.get(event_id, {})), interested, relay


def outcome(rec):
    return dict(rec.delivered_hops), dict(rec.interested_msgs), dict(rec.relay_msgs)


def span_edges(buf, trace):
    """``(src, dst, hop)`` of every successful hop span of one trace."""
    (tree,) = [t for t in build_span_trees(events_of(buf)).values() if t.trace_id == trace]
    return sorted(
        (s.src, s.dst, s.hop) for s in tree.spans.values()
        if s.parent is not None and s.kind != "deliver" and s.ok
    )


# ----------------------------------------------------------------------
# The in-sim twin of tests/net/test_cluster.py::test_mini_cluster_end_to_end
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def flooded():
    tel, buf = captured_telemetry()
    subs = bucket_subscriptions(
        30, 60, n_buckets=12, buckets_per_node=4, topics_per_bucket=3, seed=0
    )
    d = DeployedVitis(subs, VitisConfig(), seed=0, telemetry=tel)
    d.run(40)
    freeze(d)
    refresh(d)

    plans = []
    d.telemetry = obs.NULL  # the fast path's spans stay out of the buffer
    for k, topic in enumerate(d.topics()[:8]):
        publisher = min(d.subscribers(topic))
        expected = d.subscribers(topic) - {publisher}
        plans.append((k, topic, publisher, expected, disseminate(d, topic, publisher)))
    d.telemetry = tel
    for k, topic, publisher, expected, _ in plans:
        d.nodes[publisher].publish(topic, k, f"e{k}", len(expected))
    d.run(1)
    return d, plans, buf


def trees_of(buf):
    return {t.trace_id: t for t in build_span_trees(events_of(buf)).values()}


def test_one_publish_root_and_a_complete_tree_per_event(flooded):
    d, plans, buf = flooded
    trees = trees_of(buf)
    assert set(trees) == {f"e{k}" for k, *_ in plans}
    for k, topic, publisher, expected, _ in plans:
        tree = trees[f"e{k}"]
        assert tree.is_complete()
        roots = [s for s in tree.spans.values() if s.parent is None]
        assert [(s.kind, s.src, s.hop) for s in roots] == [("publish", publisher, 0)]
        assert tree.meta == {
            "topic": topic, "event": k, "publisher": publisher, "subs": len(expected),
        }


def test_every_reachable_subscriber_is_delivered_at_bfs_depth(flooded):
    d, plans, buf = flooded
    trees = trees_of(buf)
    wanted = got = 0
    for k, topic, publisher, expected, rec in plans:
        assert d.delivered.get(k, {}) == rec.delivered_hops
        assert sorted((s.dst, s.hop) for s in trees[f"e{k}"].deliveries()) == sorted(
            rec.delivered_hops.items()
        )
        wanted += len(expected)
        got += len(rec.delivered_hops)
    # The converged overlay reaches (nearly) everyone — the equalities
    # above are not vacuous.
    assert wanted > 20 and got >= 0.95 * wanted


def test_duplicates_are_suppressed_by_seen_events(flooded):
    d, plans, buf = flooded
    trees = trees_of(buf)
    # Every node forwards an event once, however often it hears it: the
    # receipts outnumber the first-receipt spans.
    receipts = sum(
        1 for t in trees.values() for s in t.spans.values()
        if s.parent is not None and s.kind != "deliver"
    )
    assert d.network.delivered["Notification"] > receipts
    k, topic, publisher, expected, rec = plans[0]
    reach = set(rec.interested_msgs) | set(rec.relay_msgs)
    for a in reach:
        assert k in d.nodes[a].seen_events
    # A late duplicate is dropped on the floor: no span, no forward.
    receiver = next(a for a in reach if a != publisher)
    sent = d.network.sent["Notification"]
    late = Notification(
        src=publisher, dst=receiver, topic=topic, event_id=k, hops=1,
        publisher=publisher,
    )
    late.span = (f"e{k}", trees[f"e{k}"].root, "flood")
    d.nodes[receiver].on_message(late)
    d.run(1)
    assert d.network.sent["Notification"] == sent
    assert d.delivered[k] == rec.delivered_hops
    assert len(trees_of(buf)[f"e{k}"].spans) == len(trees[f"e{k}"].spans)


def test_the_node_misses_no_more_than_the_oracle_on_a_freshly_frozen_overlay():
    """Regression: the node used to flood its own routing-table entries
    only, so a subscriber linked to its cluster by in-links alone was
    missed (12 deliveries over 8 topics at this seed).  Frozen straight
    from a run — learned state as the messages left it — and every topic
    published within one period, the nodes miss no delivery the oracle
    makes."""
    subs = bucket_subscriptions(
        60, 60, n_buckets=6, buckets_per_node=2, topics_per_bucket=5, seed=3
    )
    d = DeployedVitis(subs, VitisConfig(rt_size=12), seed=3)
    d.run(30)
    freeze(d)
    plans = []
    for k, topic in enumerate(d.topics()):
        publisher = min(d.subscribers(topic))
        plans.append((k, topic, publisher, disseminate(d, topic, publisher)))
    for k, topic, publisher, rec in plans:
        d.nodes[publisher].publish(topic, k, None, len(rec.subscribers))
    d.run(VitisConfig().gossip_period)
    for k, topic, publisher, rec in plans:
        missed = rec.subscribers - set(d.delivered.get(k, {}))
        assert len(missed) <= len(rec.subscribers - set(rec.delivered_hops)), topic


# ----------------------------------------------------------------------
# Planted three-node cases: the edge classes of _forward, and the purge
# ----------------------------------------------------------------------
TOPIC = 0


def planted(subs=({TOPIC}, {TOPIC}, set())):
    """Three joined nodes, no timers, and every send captured."""
    d = DeployedVitis(list(subs), VitisConfig(rt_size=4), seed=1, auto_start=False)
    for node in d.nodes.values():
        node.join([])
    sent = []
    d.network.send = sent.append  # instance-level, like the benchmark's capture
    return d, sent


def link(d, a, *neighbors):
    d.nodes[a].rt.replace(
        [(Descriptor(b, d.space.node_id(b), 0), LinkKind.FRIEND) for b in neighbors]
    )


def forwarded(sent):
    return [(m.dst, m.span[2], m.hops) for m in sent]


def forward(node, hops=1, exclude=None, injecting=False):
    node._forward(TOPIC, 7, node.address, hops, exclude, "e0", None, injecting)


def hear_request(d, receiver, sender):
    """``sender``'s profile request reaches ``receiver`` now (its reply is
    captured with everything else ``receiver`` sends)."""
    d.nodes[receiver].on_message(ProfileMessage(
        src=sender, dst=receiver, profile=d.nodes[sender]._profile_payload(is_reply=False),
    ))


def test_flood_goes_to_learned_interested_neighbours_only():
    d, sent = planted(({TOPIC}, {TOPIC}, {TOPIC}))
    link(d, 0, 1, 2)
    # Both neighbours subscribe, but only 1's profile has been heard.
    d.nodes[0].neighbor_state[1] = NeighborInfo(subscriptions=frozenset({TOPIC}), version=0)
    forward(d.nodes[0])
    assert forwarded(sent) == [(1, "flood", 1)]
    del sent[:]
    forward(d.nodes[0], exclude=1)
    # A subscriber with nobody left to notify stops: no greedy step.
    assert sent == []


def test_an_in_neighbour_is_flooded_while_its_requests_are_fresh():
    d, sent = planted(({TOPIC}, {TOPIC}, {TOPIC}))
    # 1 links to 0, not the other way round: 0 knows 1 only by its
    # profile requests, as the symmetric cluster adjacency counts it.
    link(d, 1, 0)
    hear_request(d, 0, 1)
    del sent[:]  # the reply
    assert 1 not in d.nodes[0].rt
    d.run(WINDOW)
    forward(d.nodes[0])
    assert forwarded(sent) == [(1, "flood", 1)]


def test_an_in_neighbour_whose_requests_stopped_is_not_flooded():
    d, sent = planted(({TOPIC}, {TOPIC}, {TOPIC}))
    link(d, 1, 0)
    hear_request(d, 0, 1)
    del sent[:]
    d.run(WINDOW + 0.5)
    forward(d.nodes[0])
    assert sent == []
    # A table entry needs no request: learning its profile is enough.
    link(d, 0, 1)
    forward(d.nodes[0])
    assert forwarded(sent) == [(1, "flood", 1)]


def by_distance(d):
    """The planted nodes, nearest ``hash(TOPIC)`` first."""
    tid = d.topic_id(TOPIC)
    return sorted(d.nodes, key=lambda a: d.space.distance(d.space.node_id(a), tid))


def test_a_publisher_with_no_targets_still_injects():
    d, sent = planted(({TOPIC}, {TOPIC}, {TOPIC}))
    closest, _, farthest = by_distance(d)
    # Everyone subscribes, but nobody's profile has been heard.
    link(d, farthest, *[a for a in d.nodes if a != farthest])
    d.nodes[farthest].publish(TOPIC, 7, "e0", 2)
    assert forwarded(sent) == [(closest, "publish", 1)]


def test_a_node_off_the_clusters_and_the_tree_continues_the_greedy_walk():
    d, sent = planted((set(), set(), set()))
    d.telemetry, _ = captured_telemetry()  # a traced hop stamps its kind
    closest, middle, farthest = by_distance(d)
    link(d, middle, closest, farthest)
    hop = Notification(
        src=farthest, dst=middle, topic=TOPIC, event_id=7, hops=1, publisher=farthest,
    )
    hop.span = ("e0", 1, "publish")
    d.nodes[middle].on_message(hop)
    assert forwarded(sent) == [(closest, "lookup", 2)]
    # A subscriber that receives the same hop stops there.
    del sent[:]
    d.nodes[middle].seen_events.clear()
    d.nodes[middle].profile.subscribe(TOPIC)
    d.nodes[middle].on_message(hop)
    assert sent == []


def test_tree_edges_are_rendezvous_kind_at_the_root_and_relay_below():
    d, sent = planted()
    root, gateway = d.nodes[2], d.nodes[0]
    root.relay.add_child(TOPIC, 0)
    root.relay.add_child(TOPIC, 1)
    gateway.relay.set_parent(TOPIC, 2)
    forward(root, hops=3, exclude=0)
    assert forwarded(sent) == [(1, "rendezvous", 3)]
    del sent[:]
    forward(gateway, hops=2)
    assert forwarded(sent) == [(2, "relay", 2)]


def test_greedy_next_hop_when_neither_flood_nor_tree_applies():
    d, sent = planted()
    tid = d.topic_id(TOPIC)
    by_distance = sorted(d.nodes, key=lambda a: d.space.distance(d.space.node_id(a), tid))
    closest, farthest = by_distance[0], by_distance[-1]
    node = d.nodes[farthest]
    # Make the sender uninterested and off-tree so only greedy applies.
    node.profile.unsubscribe(TOPIC)
    link(d, farthest, *[a for a in d.nodes if a != farthest])
    forward(node)
    assert forwarded(sent) == [(closest, "lookup", 1)]
    del sent[:]
    forward(node, injecting=True)
    assert forwarded(sent) == [(closest, "publish", 1)]
    del sent[:]
    # The closest node has nowhere strictly closer to go.
    d.nodes[closest].profile.unsubscribe(TOPIC)
    link(d, closest, *[a for a in d.nodes if a != closest])
    forward(d.nodes[closest])
    assert sent == []


def test_a_received_proposal_map_survives_the_senders_later_writes():
    """A profile message ships the sender's proposal map itself; the
    sender's next ``commit`` / ``drop_dead`` / ``clear`` must replace the
    map, not edit the one the receiver now holds."""
    d, _ = planted(({TOPIC, 1}, {TOPIC, 1}, set()))
    sender, receiver = d.nodes[0], d.nodes[1]
    sender.gw_state.commit({TOPIC: Proposal(2, d.space.node_id(2), 2, 1),
                            1: Proposal(0, sender.node_id, 0, 0)})
    receiver.on_message(
        ProfileMessage(src=0, dst=1, profile=sender._profile_payload(is_reply=True))
    )
    learned = receiver.neighbor_state[0]
    snapshot = dict(learned.proposals)
    assert snapshot == sender.gw_state.proposals
    sender.gw_state.commit({TOPIC: Proposal(0, sender.node_id, 0, 0)})
    assert learned.proposals == snapshot
    sender.gw_state.commit(dict(snapshot))
    receiver.on_message(
        ProfileMessage(src=0, dst=1, profile=sender._profile_payload(is_reply=True))
    )
    assert sender.gw_state.drop_dead(lambda a: a != 2) == [TOPIC]
    assert receiver.neighbor_state[0].proposals == snapshot
    receiver.on_message(
        ProfileMessage(src=0, dst=1, profile=sender._profile_payload(is_reply=True))
    )
    after_drop = dict(receiver.neighbor_state[0].proposals)
    sender.gw_state.clear()
    assert receiver.neighbor_state[0].proposals == after_drop != {}


def test_confirmed_peer_purge_clears_every_trace_of_the_peer():
    d, _ = planted()
    node = d.nodes[0]
    link(d, 0, 1, 2)
    node.neighbor_state[1] = NeighborInfo(subscriptions=frozenset({TOPIC}), version=0)
    node.neighbor_state[2] = NeighborInfo()
    node.relay.set_parent(TOPIC, 1)       # a tree whose parent is the victim
    node.relay_stamp[TOPIC] = 3.0
    node.relay.add_child(5, 1)            # the victim as the only child …
    node.child_stamp[(5, 1)] = 3.0
    node.relay.add_child(6, 1)            # … and as one child of two
    node.relay.add_child(6, 2)
    node.child_stamp[(6, 1)] = node.child_stamp[(6, 2)] = 3.0

    node.evict_confirmed(1)

    assert 1 not in node.rt and 2 in node.rt
    assert set(node.neighbor_state) == {2}
    assert TOPIC not in node.relay.parent and TOPIC not in node.relay_stamp
    assert node.relay.children == {6: {2}}
    assert node.child_stamp == {(6, 2): 3.0}


# ----------------------------------------------------------------------
# Message dispatch: one table keyed by exact class
# ----------------------------------------------------------------------
HANDLED = {
    M.PsExchangeRequest, M.PsExchangeReply, M.RtExchangeRequest, M.RtExchangeReply,
    M.ProfileMessage, M.RelayInstall, M.Notification,
}
#: Wire kinds that must never need a handler on the node.
NOT_FOR_THE_NODE = {
    # consumed by the liveness layer before ``node.on_message``
    M.Probe, M.ProbeReq, M.ProbeAck, M.Suspicion, M.Refutation,
}


def test_every_wire_kind_is_either_handled_or_deliberately_not():
    """A new wire kind lands in neither set and fails here: whoever adds
    it decides whether the node handles it."""
    from repro.net.wire import MESSAGE_KINDS

    assert set(DeployedVitisNode._HANDLERS) == HANDLED
    assert HANDLED.isdisjoint(NOT_FOR_THE_NODE)
    assert HANDLED | NOT_FOR_THE_NODE == {row[1] for row in MESSAGE_KINDS}


def test_an_unhandled_kind_is_a_heartbeat_and_nothing_else():
    d, sent = planted()
    node = d.nodes[1]
    link(d, 1, 0, 2)
    node.neighbor_state[0] = NeighborInfo(subscriptions=frozenset({TOPIC}), version=0)
    node.relay.set_parent(TOPIC, 0)
    for entry in node.rt:
        entry.age = 3

    def state():
        return (
            {e.address: e.age for e in node.rt if e.address != 0},
            dict(node.neighbor_state), dict(node.relay.parent), dict(node.relay.children),
            dict(node.relay_stamp), dict(node.child_stamp), dict(node.gw_state.proposals),
            set(node.seen_events), node.ps.view.snapshot_fields(), node.rng.getstate(),
        )

    before = state()
    node.on_message(M.Probe(src=0, dst=1, target=1))
    assert node.rt.by_address()[0].age == 0
    assert state() == before and sent == []


def test_the_tick_elects_against_its_table_neighbours_only():
    """Alg. 5 walks the routing table, so what ``_tick`` hands the election
    may stop at the table: a learned profile for an address outside it —
    however good its proposal — must not move the committed map."""

    def committed(table, stranger_known):
        d, _ = planted(({TOPIC}, {TOPIC}, {TOPIC}))
        node = d.nodes[0]
        link(d, 0, *table)
        everyone = frozenset({TOPIC})
        node.neighbor_state[1] = NeighborInfo(
            everyone, 0, {TOPIC: Proposal(1, d.space.node_id(1), 1, 0)}
        )
        if stranger_known:
            # A gateway sitting exactly on hash(topic): unbeatable.
            node.neighbor_state[2] = NeighborInfo(
                everyone, 0, {TOPIC: Proposal(2, d.topic_id(TOPIC), 2, 0)}
            )
        assert node._tick() is True
        return node.gw_state.proposals

    assert committed([1], stranger_known=True) == committed([1], stranger_known=False)
    # Not vacuous: the same profile counts as soon as 2 is a table neighbour.
    assert committed([1, 2], stranger_known=True)[TOPIC].gw_addr == 2
    assert committed([1], stranger_known=True)[TOPIC].gw_addr != 2


# ----------------------------------------------------------------------
# One T-Man surface: a message round equals a cycle-driven step
# ----------------------------------------------------------------------
def test_rt_exchange_round_equals_one_cycle_driven_tman_step():
    """``RtExchangeRequest`` → ``RtExchangeReply`` between two deployed
    nodes leaves both tables exactly where one ``tman_step`` from the same
    pools leaves them: the handlers and the cycle driver share one merge
    and one selection."""
    from repro.sim.messages import RtExchangeReply, RtExchangeRequest

    def table(node):
        return [
            (e.address, e.descriptor.node_id, e.kind, e.age, e.descriptor.age) for e in node.rt
        ]

    def plant():
        d, sent = planted(({TOPIC}, {TOPIC}, {1}))
        link(d, 0, 1)
        link(d, 1, 2)
        # 1's sampling view also knows 2, staler than its table does.
        d.nodes[1].ps.view.insert(Descriptor(2, d.space.node_id(2), 3))
        return d, sent

    by_msg, sent = plant()
    a, b = by_msg.nodes[0], by_msg.nodes[1]
    assert a._pick_exchange_peer(by_msg.is_alive) == 1
    b.on_message(
        RtExchangeRequest(src=0, dst=1, buffer=list(a._exchange_pool().values()))
    )
    (reply,) = sent
    assert isinstance(reply, RtExchangeReply) and reply.dst == 0
    a.on_message(reply)

    by_cycle, _ = plant()
    peer = by_cycle.nodes[0].tman_step(
        by_cycle.nodes.get, by_cycle.is_alive, by_cycle.profile_of
    )
    assert peer == 1

    for addr in (0, 1):
        assert table(by_msg.nodes[addr]) == table(by_cycle.nodes[addr])
    # The exchange did something: 0 learned of 2 through 1.
    assert sorted(by_msg.nodes[0].rt.addresses) == [1, 2]
    assert sorted(by_msg.nodes[1].rt.addresses) == [0, 2]


# ----------------------------------------------------------------------
# Two control planes: the cycle driver's fixed point is the messages'
# ----------------------------------------------------------------------
def test_both_control_planes_reach_the_same_gateways_and_relay_parents():
    """Same planted tables, same subscriptions: ``VitisProtocol.finalize``
    (synchronous Alg. 5 rounds, then one oracle walk per gateway) and the
    deployed nodes' ``_tick`` / ``ProfileMessage`` / ``RelayInstall``
    traffic settle on the same gateways and the same parent pointers.

    Seven nodes in order of distance to ``hash(TOPIC)``: the rendezvous and
    one more non-subscriber sit between two clusters of the topic; cluster
    A is a three-node chain, so hop counts and split horizon are exercised
    and its relay path is two hops long.
    """
    from repro.core.identifiers import IdSpace
    from repro.core.protocol import VitisProtocol
    from repro.sim.messages import RelayInstall

    space = IdSpace()
    tid = space.topic_id(TOPIC)
    root, between, gw_b, gw_a, b2, a2, a3 = sorted(
        range(7), key=lambda a: space.distance(space.node_id(a), tid)
    )
    tables = {
        a3: (a2,), a2: (a3, gw_a), gw_a: (a2, between),
        between: (gw_a, root), root: (between, gw_b),
        gw_b: (b2, root), b2: (gw_b,),
    }
    subs = [set() if a in (root, between) else {TOPIC} for a in range(7)]

    def plant(system):
        for node in system.nodes.values():
            node.join([])
        for a, neighbors in tables.items():
            link(system, a, *neighbors)

    def outcome(system):
        return system.gateways_of(TOPIC), {
            a: n.relay.parent.get(TOPIC) for a, n in system.nodes.items()
        }

    config = VitisConfig(rt_size=4)
    by_cycle = VitisProtocol(subs, config, seed=1, auto_start=False,
                             election_every=0, relay_every=0)
    plant(by_cycle)
    by_cycle.finalize()

    by_msg = DeployedVitis(subs, config, seed=1, auto_start=False)
    plant(by_msg)
    sent = []
    by_msg.network.send = sent.append

    def state():
        return [
            (n.gw_state.proposals, dict(n.relay.parent),
             {t: set(kids) for t, kids in n.relay.children.items()})
            for n in by_msg.nodes.values()
        ]

    # One period per round: every node ticks, then only profiles and relay
    # installs are delivered (no table exchange: the tables stay planted).
    # Settled = nothing moved for a whole relay TTL, so the paths the
    # not-yet-converged election requested have expired too.
    quiet = rounds = 0
    while quiet <= config.STALENESS_THRESHOLD:
        rounds += 1
        assert rounds < 60, "no fixed point"
        before = state()
        for node in by_msg.nodes.values():
            assert node._tick() is True
        while sent:
            msg = sent.pop(0)
            if isinstance(msg, (ProfileMessage, RelayInstall)):
                by_msg.nodes[msg.dst].on_message(msg)
        by_msg.run(config.gossip_period)
        quiet = quiet + 1 if state() == before else 0

    assert {a: tuple(n.rt.addresses) for a, n in by_msg.nodes.items()} == tables
    assert outcome(by_msg) == outcome(by_cycle)
    # Not vacuous: two clusters, two gateways, a two-hop and a one-hop path.
    assert outcome(by_cycle) == (sorted([gw_a, gw_b]), {
        gw_a: between, between: root, gw_b: root,
        root: None, a2: None, a3: None, b2: None,
    })
