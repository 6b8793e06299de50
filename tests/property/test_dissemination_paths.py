"""One generator, every dissemination path (ROADMAP item 3c).

Hypothesis plants small random overlays — arbitrary subscriptions,
arbitrary routing-table links (no ring, so lookups may dead-end), relay
trees installed by the protocol's own election and ``RequestRelay``
walks, optionally one crashed node — and publishes one event through
:func:`~repro.core.dissemination.disseminate` under every configuration
that changes which branches of its single BFS run:

========================  ==============================================
``plain``                 nothing attached: the un-hooked loop
``tracing``               span recording and miss attribution
``link_cost``             a ``link_cost ≡ 0`` hook
``loss0``                 ``MessageLoss(0.0)``: the transmit gate, never
                          dropping
========================  ==============================================

Each must report the deliveries, hop counts and per-node message counts
of the reference: the same event through the nodes' own flood
(``DeployedVitisNode.publish``), real ``Notification`` messages through
the engine, on a frozen, zero-latency :class:`DeployedVitis` carrying
the same overlay and the profiles its nodes learned by one round of
profile messages.  Traced, both reconstruct the same span edges.  On
top: a replay hit is indistinguishable from the first flood, and from
the recompute a ``topology_version`` bump forces.

That holds for a *lookup-free* publisher, one whose flood starts inside
its cluster or on the tree.  One that must inject by a rendezvous
lookup walks the whole greedy path in the fast path, while the node
walks only until the first subscriber or tree node; over a ring whose
clusters all hang on their topic's tree, both still deliver to the same
subscribers.

Addresses stay below 8, so every set of them iterates in ascending
order: the fast path's forwarding tuples and the nodes' target sets
then break ties between equally early senders alike.
"""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.config import VitisConfig
from repro.core.deployment import DeployedVitis
from repro.core.dissemination import disseminate
from repro.core.identifiers import IdSpace
from repro.core.protocol import VitisProtocol
from repro.core.routing_table import LinkKind
from repro.faults import MessageLoss
from tests.core.test_node_flood import node_flood, outcome, refresh, span_edges
from tests.core.test_span_tracing import captured_telemetry, events_of

MAX_NODES = 12
MAX_TOPICS = 3
MAX_LINKS = 5
#: Addresses below 8 iterate every set in address order (see above).
REFERENCE_NODES = 8


@st.composite
def overlays(draw, max_nodes=MAX_NODES, ring=False):
    n = draw(st.integers(min_value=3, max_value=max_nodes))
    n_topics = draw(st.integers(min_value=1, max_value=MAX_TOPICS))
    addresses = list(range(n))
    subs = [
        draw(st.sets(st.integers(min_value=0, max_value=n_topics - 1)))
        for _ in addresses
    ]
    links = [
        draw(
            st.lists(
                st.sampled_from([b for b in addresses if b != a]),
                unique=True,
                # A ring links everyone already: few extra links leave
                # more publishers that must inject.
                max_size=1 if ring else MAX_LINKS,
            )
        )
        for a in addresses
    ]
    topic = draw(st.integers(min_value=0, max_value=n_topics - 1))
    publisher = draw(st.sampled_from(addresses))
    crashed = None if ring else draw(st.none() | st.sampled_from(addresses))
    seed = draw(st.integers(min_value=0, max_value=2**16))
    return subs, links, topic, publisher, crashed, seed


def plant(subs, links, crashed, seed):
    p = VitisProtocol(
        subs, VitisConfig(rt_size=MAX_LINKS + 1), seed=seed, n_topics=MAX_TOPICS,
        election_every=0, relay_every=0,
    )
    for a, neighbours in enumerate(links):
        p.nodes[a].rt.replace(
            [(b, p.space.node_id(b), 0, LinkKind.FRIEND) for b in neighbours]
        )
    p.topology_version += 1
    p.finalize()
    if crashed is not None:
        p.leave(crashed)
    return p


def plant_deployed(subs, links, crashed, seed, ring=False):
    """The overlay on a frozen :class:`DeployedVitis`: the planted tables
    (plus, with ``ring``, each node's ring neighbours), the trees
    :func:`plant`'s finalized protocol installs over them, and the
    profiles one round of profile messages teaches; then the crash,
    which no node has noticed yet."""
    if ring:
        space = IdSpace()
        by_id = sorted(range(len(links)), key=space.node_id)
        at = {a: i for i, a in enumerate(by_id)}
        links = [
            list(dict.fromkeys(
                [*links[a], by_id[(at[a] + 1) % len(by_id)], by_id[at[a] - 1]]
            ))
            for a in range(len(links))
        ]
    p = plant(subs, links, None, seed)
    d = DeployedVitis(subs, p.config, seed=seed, auto_start=False)
    for a, node in d.nodes.items():
        node.join([])
        node.rt.replace(
            [(b, d.space.node_id(b), 0, LinkKind.FRIEND) for b in links[a]]
        )
        node.relay.parent.update(p.nodes[a].relay.parent)
        node.relay.children.update(
            {t: set(kids) for t, kids in p.nodes[a].relay.children.items()}
        )
    refresh(d)
    if crashed is not None:
        d.leave(crashed)
    return d


def lookup_free(d, topic, publisher):
    initial, path = d.publisher_targets(publisher, topic)
    return bool(initial) and not path


@settings(max_examples=120, deadline=None)
@given(overlays(max_nodes=REFERENCE_NODES))
def test_every_configuration_matches_the_network_reference(overlay):
    subs, links, topic, publisher, crashed, seed = overlay
    d = plant_deployed(subs, links, crashed, seed)
    if not d.is_alive(publisher):
        assert outcome(disseminate(d, topic, publisher)) == ({}, {}, {})
        return
    if not lookup_free(d, topic, publisher):
        return
    expected = node_flood(d, topic, publisher, event_id=0)

    first = disseminate(d, topic, publisher)
    assert outcome(first) == expected
    assert first.subscribers == d.subscribers(topic) - {publisher}

    # A replay hit, and the recompute a version bump forces.
    assert outcome(disseminate(d, topic, publisher)) == expected
    d.run(0.5)  # message mode: the clock is the topology version
    assert outcome(disseminate(d, topic, publisher)) == expected

    untraced = d.telemetry
    d.telemetry, buf = captured_telemetry()
    try:
        traced = disseminate(d, topic, publisher)
        assert node_flood(d, topic, publisher, event_id=1, trace="node") == expected
    finally:
        d.telemetry = untraced
    assert outcome(traced) == expected
    assert span_edges(buf, traced.trace_id) == span_edges(buf, "node")
    # Tracing attributes exactly the subscribers the flood did not reach.
    missed = sorted(e["addr"] for e in events_of(buf) if e["ev"] == "miss")
    assert missed == sorted(first.subscribers - set(expected[0]))

    d.link_cost = lambda u, v: 0.0
    costed = disseminate(d, topic, publisher)
    d.link_cost = None
    assert outcome(costed) == expected
    assert costed.physical_cost == 0.0

    d.attach_faults(MessageLoss(0.0, random.Random(seed)))
    lossless = disseminate(d, topic, publisher)
    assert outcome(lossless) == expected
    assert lossless.faults == lossless.retries == 0
    # The nodes send through the same zero-loss transport.
    assert node_flood(d, topic, publisher, event_id=2) == expected
    d.attach_faults(None)


@settings(max_examples=40, deadline=None)
@given(overlays(max_nodes=REFERENCE_NODES, ring=True))
def test_an_injecting_publisher_reaches_the_subscribers_of_the_node_flood(overlay):
    subs, links, _, _, _, seed = overlay
    d = plant_deployed(subs, links, None, seed, ring=True)
    for topic in range(MAX_TOPICS):
        for publisher in d.nodes:
            if not lookup_free(d, topic, publisher):
                rec = disseminate(d, topic, publisher)
                delivered, _, _ = node_flood(d, topic, publisher, event_id=(topic, publisher))
                assert set(rec.delivered_hops) == set(delivered), (topic, publisher)
