"""Differential property test for ``elect_round``.

The reference is Alg. 5 transcribed as written — for every subscribed
topic, restart from self and rescan the whole routing table — with the
repo's two documented additions (the echoed-self-proposal guard and the
same-gateway hop shortening).  ``elect_round`` walks the table once with
running per-topic state instead; on every generated input it must return
the same proposal map, in the same key order, and count the same
``ElectionStats``.

Ids take 4–6 bits' worth of values (spread over the smallest space
``IdSpace`` accepts) and a handful of addresses name every gateway,
parent and sender, so two gateways at equal distance, a gateway
repeated with fewer hops later in the table, a parent that is another
table member, and this node's own proposal echoed back all occur; the
``@example`` rows pin one of each.
"""

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.gateway import ElectionStats, GatewayState, Proposal, elect_round
from repro.core.identifiers import IdSpace
from repro.core.routing_table import LinkKind, RoutingTable

SPACE = IdSpace(bits=8)
SELF = 0
N_ADDRESSES = 7  # 0 is the electing node; the rest may or may not be in its table
N_TOPICS = 4


def reference_round(space, ids, subscriptions, rt, subs_of, proposals_of, topic_ids, depth):
    """Alg. 5 as a per-topic rescan of the table; returns the proposal
    map and ``(proposals, adoptions, self_proposals)``."""
    out = {}
    adoptions = selfs = 0
    for topic in subscriptions:
        t_id = topic_ids(topic)
        gw_addr, gw_id, parent, hops = SELF, ids[SELF], SELF, 0  # line 3
        current_dis = space.distance(ids[SELF], t_id)
        for entry in rt:
            naddr = entry.address
            if topic not in subs_of(naddr):  # line 5
                continue
            new = proposals_of.get(naddr, {}).get(topic)
            if new is None:
                continue
            if new.parent_addr != naddr and new.parent_addr in rt:  # line 7
                continue
            if new.gw_addr == SELF and new.parent_addr != SELF:
                continue  # echoed self-proposal with a stale hop count
            new_dis = space.distance(new.gw_id, t_id)
            new_hops = new.hops + 1
            if new_dis < current_dis and new_hops < depth:  # lines 8-10
                gw_addr, gw_id, parent, hops = new.gw_addr, new.gw_id, naddr, new_hops
                current_dis = new_dis
            elif new.gw_addr == gw_addr and new_hops < hops:
                parent, hops = naddr, new_hops
        out[topic] = Proposal(gw_addr, gw_id, parent, hops)
        if gw_addr == SELF:
            selfs += 1
        else:
            adoptions += 1
    return out, (len(out), adoptions, selfs)


@st.composite
def rounds(draw):
    stride = draw(st.sampled_from([4, 16]))
    any_id = st.integers(min_value=0, max_value=SPACE.size // stride - 1).map(stride.__mul__)
    ids = draw(st.lists(any_id, min_size=N_ADDRESSES, max_size=N_ADDRESSES))
    topic_hash = draw(st.lists(any_id, min_size=N_TOPICS, max_size=N_TOPICS))
    address = st.integers(min_value=0, max_value=N_ADDRESSES - 1)
    topics = st.frozensets(st.integers(min_value=0, max_value=N_TOPICS - 1))
    # Table order is what the adoption scan is sensitive to.
    table = draw(st.lists(st.integers(1, N_ADDRESSES - 1), unique=True))
    subscriptions = draw(topics)
    subs_of = {a: draw(topics) for a in range(N_ADDRESSES)}
    # A neighbor may be missing from the map, hold an empty map, lack a
    # shared topic or carry topics it does not subscribe to.
    proposals_of = {}
    for a in draw(st.sets(address)):
        proposals_of[a] = {
            t: Proposal(gw, ids[gw], draw(address), draw(st.integers(0, 6)))
            for t in draw(topics)
            for gw in [draw(address)]
        }
    depth = draw(st.integers(min_value=1, max_value=6))
    return ids, topic_hash, table, subscriptions, subs_of, proposals_of, depth


def _case(table, proposals, ids=(8, 1, 2, 3, 4, 5, 6), depth=5, topic_hash=0):
    """A hand-written round on topic 0 (hash 0, self at distance 8):
    ``proposals`` is ``sender → (gw, parent, hops)``."""
    ids = list(ids)
    everyone = frozenset({0})
    return (
        ids, [topic_hash] * N_TOPICS, table, everyone,
        {a: everyone for a in range(N_ADDRESSES)},
        {a: {0: Proposal(gw, ids[gw], parent, hops)} for a, (gw, parent, hops) in proposals.items()},
        depth,
    )


@given(rounds())
@settings(max_examples=600, deadline=None)
# This node's own proposal echoed back by a neighbor that adopted it.
@example(_case([1, 2], {1: (0, 3, 1), 2: (2, 2, 0)}))
# A parent that is in the reader's table but is not the sender, naming
# the closest gateway of all.
@example(_case([1, 2], {1: (3, 2, 1), 2: (2, 2, 0)}, ids=(8, 6, 5, 1, 4, 5, 6)))
# The same gateway again, later in the table, with fewer hops.
@example(_case([1, 2, 3], {1: (4, 5, 3), 2: (2, 2, 0), 3: (4, 4, 1)}, ids=(8, 6, 7, 5, 1, 3, 2)))
# Two gateways at equal distance from hash(t): ids 1 and 255 around 0.
@example(_case([1, 2], {1: (1, 1, 0), 2: (2, 2, 0)}, ids=(8, 1, 255, 3, 4, 5, 6)))
# A closer gateway one hop too far, then a worse one within reach.
@example(_case([1, 2], {1: (3, 1, 1), 2: (2, 2, 0)}, ids=(8, 5, 4, 1, 9, 9, 9), depth=2))
def test_one_pass_equals_the_per_topic_rescan(case):
    ids, topic_hash, table, subscriptions, subs_of, proposals_of, depth = case
    rt = RoutingTable(SELF, N_ADDRESSES)
    rt.replace([(a, ids[a], 0, LinkKind.FRIEND) for a in table])
    stats = ElectionStats()
    got = elect_round(
        SPACE, GatewayState(SELF, ids[SELF]), subscriptions, rt,
        neighbor_subscriptions=subs_of.__getitem__,
        neighbor_proposals=proposals_of,
        topic_ids=topic_hash.__getitem__,
        depth=depth,
        stats=stats,
    )
    want, counters = reference_round(
        SPACE, ids, subscriptions, rt, subs_of.__getitem__, proposals_of,
        topic_hash.__getitem__, depth,
    )
    assert got == want
    assert list(got) == list(want)
    assert (stats.proposals, stats.adoptions, stats.self_proposals) == counters


@st.composite
def rounds_with_strangers(draw):
    """A round whose learned maps also cover addresses no table holds,
    each proposing a gateway that sits on ``hash(topic)`` itself — the
    deployed node's ``neighbor_state`` after its table has moved on."""
    ids, topic_hash, table, subscriptions, subs_of, proposals_of, depth = draw(rounds())
    everything = frozenset(range(N_TOPICS))
    for a in draw(st.sets(st.integers(N_ADDRESSES, N_ADDRESSES + 3), min_size=1)):
        subs_of[a] = everything
        proposals_of[a] = {t: Proposal(a, topic_hash[t], a, 0) for t in everything}
    return ids, topic_hash, table, subscriptions, subs_of, proposals_of, depth


@given(rounds_with_strangers())
@settings(max_examples=300, deadline=None)
def test_only_the_tables_neighbours_are_read(case):
    """What lets the deployed tick ship the proposals of its ≤ ``rt_size``
    table neighbours instead of everything it ever learned."""
    ids, topic_hash, table, subscriptions, subs_of, proposals_of, depth = case
    rt = RoutingTable(SELF, N_ADDRESSES)
    rt.replace([(a, ids[a], 0, LinkKind.FRIEND) for a in table])

    def elect(proposals):
        return elect_round(
            SPACE, GatewayState(SELF, ids[SELF]), subscriptions, rt,
            neighbor_subscriptions=subs_of.__getitem__,
            neighbor_proposals=proposals,
            topic_ids=topic_hash.__getitem__,
            depth=depth,
        )

    everything = elect(proposals_of)
    table_only = elect({a: proposals_of[a] for a in table if a in proposals_of})
    assert everything == table_only
    assert list(everything) == list(table_only)
    assert not {p.gw_addr for p in everything.values()} & set(range(N_ADDRESSES, N_ADDRESSES + 4))
