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
``pulls``                 ``count_pulls=True``
========================  ==============================================

Each must report the deliveries, hop counts and per-node message counts
of :func:`~repro.core.dissemination.disseminate_via_network`, the
reference that sends real ``Notification`` messages through the engine.
On top: a replay hit is indistinguishable from the first flood, and
from the recompute a ``topology_version`` bump forces.
"""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.config import VitisConfig
from repro.core.dissemination import disseminate, disseminate_via_network
from repro.core.protocol import VitisProtocol
from repro.core.routing_table import LinkKind
from repro.faults import MessageLoss
from repro.gossip.view import Descriptor
from tests.core.test_span_tracing import captured_telemetry, events_of

MAX_NODES = 12
MAX_TOPICS = 3
MAX_LINKS = 5


@st.composite
def overlays(draw):
    n = draw(st.integers(min_value=3, max_value=MAX_NODES))
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
                max_size=MAX_LINKS,
            )
        )
        for a in addresses
    ]
    topic = draw(st.integers(min_value=0, max_value=n_topics - 1))
    publisher = draw(st.sampled_from(addresses))
    crashed = draw(st.none() | st.sampled_from(addresses))
    seed = draw(st.integers(min_value=0, max_value=2**16))
    return subs, links, topic, publisher, crashed, seed


def plant(subs, links, crashed, seed):
    p = VitisProtocol(
        subs, VitisConfig(rt_size=MAX_LINKS + 1), seed=seed, n_topics=MAX_TOPICS,
        election_every=0, relay_every=0,
    )
    for a, neighbours in enumerate(links):
        p.nodes[a].rt.replace(
            [(Descriptor(b, p.space.node_id(b), 0), LinkKind.FRIEND) for b in neighbours]
        )
    p.topology_version += 1
    p.finalize()
    if crashed is not None:
        p.leave(crashed)
    return p


def outcome(rec):
    return dict(rec.delivered_hops), dict(rec.interested_msgs), dict(rec.relay_msgs)


@settings(max_examples=120, deadline=None)
@given(overlays())
def test_every_configuration_matches_the_network_reference(overlay):
    subs, links, topic, publisher, crashed, seed = overlay
    p = plant(subs, links, crashed, seed)
    reference = disseminate_via_network(p, topic, publisher)
    expected = outcome(reference)

    first = disseminate(p, topic, publisher)
    assert outcome(first) == expected
    assert first.subscribers == reference.subscribers

    # A replay hit, and the recompute a version bump forces.
    assert outcome(disseminate(p, topic, publisher)) == expected
    p.topology_version += 1
    assert outcome(disseminate(p, topic, publisher)) == expected

    untraced = p.telemetry
    p.telemetry, buf = captured_telemetry()
    try:
        traced = disseminate(p, topic, publisher)
    finally:
        p.telemetry = untraced
    assert outcome(traced) == expected
    # Tracing attributes exactly the subscribers the flood did not reach.
    missed = sorted(e["addr"] for e in events_of(buf) if e["ev"] == "miss")
    assert missed == sorted(set(reference.subscribers) - set(expected[0]))

    p.link_cost = lambda u, v: 0.0
    costed = disseminate(p, topic, publisher)
    p.link_cost = None
    assert outcome(costed) == expected
    assert costed.physical_cost == 0.0

    p.attach_faults(MessageLoss(0.0, random.Random(seed)))
    lossless = disseminate(p, topic, publisher)
    assert outcome(lossless) == expected
    assert lossless.faults == lossless.retries == 0
    # The reference sends through the same zero-loss transport.
    assert outcome(disseminate_via_network(p, topic, publisher)) == expected
    p.attach_faults(None)

    pulled = disseminate(p, topic, publisher, count_pulls=True)
    assert pulled.delivered_hops == reference.delivered_hops
    # One pull round-trip per first receipt, folded into the counters.
    receipts = len(
        (set(reference.interested_msgs) | set(reference.relay_msgs)) - {publisher}
    )
    assert pulled.pull_requests == pulled.pull_replies == receipts
    assert pulled.total_messages == reference.total_messages + 2 * receipts
