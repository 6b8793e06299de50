"""A topic's compiled forwarding table against the per-node rule.

When a topic's memo opens, :func:`~repro.core.dissemination.disseminate`
writes every live subscriber's forwarding-targets tuple in one pass.
Each tuple must be the one :func:`forwarding_targets` builds for that
node — the same members *and the same iteration order*, since the BFS
walks the tuple and the order of first receipts is the run's trajectory.
Set iteration order only shows once hashes collide and tables resize, so
the overlays here draw addresses from a wide range and plant relay
pointers (self-pointers included) on top of the trees the protocol
installs itself.

A publisher is served its compiled tuple only when it is a live
subscriber; every publisher's initial targets must iterate as the
per-publisher rule's set does.
"""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines.rvr import RvrProtocol
from repro.core.config import VitisConfig
from repro.core.deployment import DeployedVitis
from repro.core.dissemination import (
    _compile_topic,
    _topic_cache,
    disseminate,
    forwarding_targets,
)
from repro.core.protocol import VitisProtocol
from repro.core.routing_table import LinkKind
from repro.gossip.view import Descriptor
from repro.workloads.subscriptions import bucket_subscriptions
from tests.core.test_node_flood import node_flood, outcome

MAX_NODES = 24
MAX_TOPICS = 3
MAX_LINKS = 6


@st.composite
def overlays(draw):
    addresses = draw(
        st.lists(st.integers(0, 4095), unique=True, min_size=3, max_size=MAX_NODES)
    )
    n_topics = draw(st.integers(1, MAX_TOPICS))
    topic_ids = st.integers(0, n_topics - 1)
    subs = {a: draw(st.sets(topic_ids)) for a in addresses}
    links = {
        a: draw(st.lists(st.sampled_from([b for b in addresses if b != a]),
                         unique=True, max_size=MAX_LINKS))
        for a in addresses
    }
    # Relay pointers planted over the installed trees: any node, any
    # parent, any children — the node itself included.
    planted = draw(st.lists(
        st.tuples(
            st.sampled_from(addresses), topic_ids,
            st.none() | st.sampled_from(addresses),
            st.lists(st.sampled_from(addresses), unique=True, max_size=8),
        ),
        max_size=6,
    ))
    dead = draw(st.lists(st.sampled_from(addresses), unique=True, max_size=3))
    seed = draw(st.integers(0, 2**16))
    return subs, links, planted, dead, seed


def plant(cls, subs, links, planted, dead, seed):
    p = cls(
        subs, VitisConfig(rt_size=MAX_LINKS + 1), seed=seed, n_topics=MAX_TOPICS,
        election_every=0, relay_every=0,
    )
    for a, neighbours in links.items():
        p.nodes[a].rt.replace(
            [(Descriptor(b, p.space.node_id(b), 0), LinkKind.FRIEND) for b in neighbours]
        )
    p.topology_version += 1
    p.finalize()
    for a, topic, parent, children in planted:
        relay = p.nodes[a].relay
        if parent is not None:
            relay.set_parent(topic, parent)
        for c in children:
            relay.add_child(topic, c)
    for a in dead:
        p.leave(a)
    p.topology_version += 1
    return p


def reference_publisher_targets(p, publisher, topic):
    """The per-publisher rule as a fresh set: the node's forwarding
    targets, plus, for a non-subscriber, its interested RT neighbours."""
    targets = forwarding_targets(p, publisher, topic)
    node = p.nodes[publisher]
    if not node.profile.subscribes_to(topic):
        for b, _ in node.rt.links():
            prof = p.profile_of(b)
            if prof is not None and prof.subscribes_to(topic):
                targets.add(b)
    return targets


def compiled_tables(p):
    """Open every topic's memo by a flood from each live node, then
    return ``topic → (live subscribers, targets memo)``."""
    live = sorted(p.live_addresses())
    out = {}
    for topic in range(p.n_topics):
        for a in live:
            disseminate(p, topic, a)
        if live:
            memo = p._fwd_cache[topic]
            out[topic] = (memo.live_subs, memo.targets)
    return out


def assert_compile_follows_the_rule(p):
    for topic, (live_subs, targets) in compiled_tables(p).items():
        assert live_subs == frozenset(p.subscribers(topic))
        for a in live_subs:
            assert targets[a] == tuple(forwarding_targets(p, a, topic)), (topic, a)


def assert_publishers_start_as_the_rule(p):
    for topic in range(p.n_topics):
        for a in sorted(p.live_addresses()):
            initial, path = p.publisher_targets(a, topic)
            expected = reference_publisher_targets(p, a, topic)
            if expected:
                assert list(initial) == list(expected), (topic, a)
                assert path == []
            else:
                assert not initial


@settings(max_examples=150, deadline=None)
@given(overlays())
def test_every_live_subscriber_compiles_to_its_forwarding_targets(overlay):
    p = plant(VitisProtocol, *overlay)
    assert_compile_follows_the_rule(p)


@settings(max_examples=150, deadline=None)
@given(overlays())
def test_every_publisher_starts_in_the_order_of_the_rule(overlay):
    p = plant(VitisProtocol, *overlay)
    # Flooding first leaves lazily filled entries for relay-only nodes in
    # the memo; none of them may serve as a publisher's targets.
    compiled_tables(p)
    assert_publishers_start_as_the_rule(p)
    # And on a fresh version, asked before any flood opened the memo.
    p.topology_version += 1
    assert_publishers_start_as_the_rule(p)


@settings(max_examples=60, deadline=None)
@given(overlays())
def test_rvr_compiles_nothing(overlay):
    p = plant(RvrProtocol, *overlay)
    for topic in range(p.n_topics):
        memo = _topic_cache(p, topic)
        assert _compile_topic(p, topic, memo) == frozenset(p.subscribers(topic))
        assert memo.targets == {}


@settings(max_examples=60, deadline=None)
@given(overlays())
def test_a_tree_only_overlay_floods_as_its_nodes_do(overlay):
    """The relay pointers of the overlay — installed and planted, self-
    pointers, dangling and dead ends included — on a frozen
    :class:`DeployedVitis` with empty routing tables, whose nodes have
    learned no profile: the adjacency is empty, every flood is tree-only
    and no greedy step has a next hop, so for every publisher the fast
    path and the nodes' own flood agree exactly, whatever the addresses
    (both build each target set from the same tree list, in the same
    order)."""
    subs, links, planted, dead, seed = overlay
    p = plant(VitisProtocol, *overlay)
    d = DeployedVitis(subs, VitisConfig(rt_size=MAX_LINKS + 1), seed=seed, auto_start=False)
    for a, node in d.nodes.items():
        node.join([])
        node.relay.parent.update(p.nodes[a].relay.parent)
        node.relay.children.update(
            {t: set(kids) for t, kids in p.nodes[a].relay.children.items()}
        )
    for a in dead:
        d.leave(a)
    for topic in range(MAX_TOPICS):
        for a in sorted(d.live_addresses()):
            rec = disseminate(d, topic, a)
            assert node_flood(d, topic, a, event_id=(topic, a)) == outcome(rec), (topic, a)


def test_a_deployed_system_mid_run_compiles_to_the_rule():
    subs = bucket_subscriptions(
        60, 60, n_buckets=6, buckets_per_node=2, topics_per_bucket=5, seed=3
    )
    d = DeployedVitis(subs, VitisConfig(rt_size=10), seed=4)
    d.run(25)
    for a in random.Random(4).sample(sorted(d.live_addresses()), 3):
        d.leave(a)
    assert any(d.nodes[a].relay.parent or d.nodes[a].relay.children for a in d.live_addresses())
    for topic in d.topics():
        live = sorted(d.subscribers(topic))
        if not live:
            continue
        disseminate(d, topic, live[0])
        memo = d._fwd_cache[topic]
        assert memo.live_subs == frozenset(live)
        for a in live:
            assert memo.targets[a] == tuple(forwarding_targets(d, a, topic)), (topic, a)
        for a in live:
            initial, _ = d.publisher_targets(a, topic)
            expected = reference_publisher_targets(d, a, topic)
            if expected:
                assert list(initial) == list(expected), (topic, a)
