"""A utility-memo hit is indistinguishable from a recompute (ISSUE 16).

``VitisNode._select_from_pool`` ranks friends from ``_umemo`` without
validating what it reads, so the memo has to be right *by construction*:
one stamp (the ``NodeProfile`` epoch, which every profile write bumps,
the node's own included) empties it, ``join`` empties it,
and the message-driven node drops an address whenever what it learned
about that address changes (``DeployedVitisNode._learn``).  Hypothesis
interleaves every kind of write with selections on two identical nodes;
the twin's memo is emptied after each selection (nothing it reads was
ever remembered), the warm node's never — and they must always agree,
in what they select and in every utility read.

Mutation-checked, one invalidation point at a time: dropping the
stamp, the clear in ``join``, or the memo drop in ``_learn`` for a
new-version ``ProfileMessage``, for the heartbeat eviction or for
``evict_confirmed`` makes this file fail (each in 4 of 4 fresh runs).
"""

import random

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.config import VitisConfig
from repro.core.deployment import DeployedVitis
from repro.core.identifiers import IdSpace
from repro.core.node import VitisNode
from repro.core.profile import NodeProfile
from repro.core.routing_table import LinkKind
from repro.core.utility import PublicationRates, UtilityFunction
from repro.gossip.view import Descriptor
from repro.sim.messages import ProfileMessage

N_TOPICS = 6
CANDIDATES = [1, 2, 3, 4]
# Successor, predecessor and one friend: the two candidates left after the
# ring picks contest a single slot, so a stale utility shows in the result.
CONFIG = VitisConfig(rt_size=3, n_sw_links=0)
SPACE = IdSpace()

topics = st.integers(min_value=0, max_value=N_TOPICS - 1)
topic_sets = st.frozensets(topics, max_size=N_TOPICS)
bootstraps = st.sets(st.sampled_from(CANDIDATES), min_size=3)
profile_writes = st.one_of(
    st.tuples(st.just("subscribe"), topics),
    st.tuples(st.just("unsubscribe"), topics),
)


def resubscribe(profile, topics):
    """Change *profile*'s subscriptions to *topics*, one write per topic."""
    for t in profile.subscriptions - topics:
        profile.unsubscribe(t)
    for t in topics - profile.subscriptions:
        profile.subscribe(t)


def flat(selection):
    return [(d.address, d.node_id, d.age, kind) for d, kind in selection]


def table(node):
    return [(e.address, e.descriptor.node_id, e.kind, e.age) for e in node.rt]


def pool():
    return {a: (a, SPACE.node_id(a), a % 3) for a in CANDIDATES}


def descriptors(addresses):
    return [Descriptor(a, SPACE.node_id(a), a % 3) for a in addresses]


def hit_equals_recompute(warm, warm_profile_of, cold, cold_profile_of):
    """Same selection, and every utility the warm node read from its memo
    is the one the twin just computed; then the twin forgets again."""
    assert flat(warm._select_from_pool(pool(), warm_profile_of)) == flat(
        cold._select_from_pool(pool(), cold_profile_of)
    )
    assert {a: warm._umemo.get(a) for a in cold._umemo} == cold._umemo
    cold._umemo.clear()


def contested():
    """The two candidates node 0's ring picks leave over.  Only their
    utilities are ever read, so every write in the op lists aims at them."""
    probe = VitisNode(0, SPACE.node_id(0), (), CONFIG, SPACE, UtilityFunction(),
                      random.Random(0))
    ring = probe._select_from_pool(pool(), lambda a: None)[:2]
    return sorted(set(CANDIDATES) - {d.address for d, _ in ring})


candidates = st.sampled_from(contested())


# ----------------------------------------------------------------------
# Cycle-driven node: the stamp and ``join``
# ----------------------------------------------------------------------
cycle_ops = st.one_of(
    st.tuples(st.just("own"), profile_writes),
    st.tuples(st.just("candidate"), candidates, profile_writes),
    st.tuples(st.just("join"), bootstraps),
)


@settings(max_examples=300, deadline=None)
@given(
    st.lists(topic_sets, min_size=5, max_size=5),
    st.sets(candidates, max_size=1),
    st.lists(cycle_ops, min_size=1, max_size=10),
)
def test_cycle_driven_hit_equals_recompute(subs, unknown, ops):
    rates = PublicationRates(np.arange(1.0, N_TOPICS + 1))
    profiles = {
        a: NodeProfile(a, SPACE.node_id(a), subs[a]) for a in CANDIDATES if a not in unknown
    }
    warm, cold = (
        VitisNode(0, SPACE.node_id(0), subs[0], CONFIG, SPACE,
                  UtilityFunction(rates), random.Random(5))
        for _ in range(2)
    )

    def agree():
        hit_equals_recompute(warm, profiles.get, cold, profiles.get)

    agree()  # warms the memo
    for op in ops:
        if op[0] == "own":
            name, arg = op[1]
            for node in (warm, cold):
                getattr(node.profile, name)(arg)
        elif op[0] == "candidate":
            name, arg = op[2]
            if op[1] in profiles:
                getattr(profiles[op[1]], name)(arg)
            else:  # an unknown profile becomes known
                profiles[op[1]] = NodeProfile(op[1], SPACE.node_id(op[1]), subs[op[1]])
        else:
            # The bootstrap selection knows no profile: a rejoining node
            # must not rank by what it remembered from before the crash.
            for node in (warm, cold):
                node.join(descriptors(sorted(op[1])))
            assert table(warm) == table(cold)
        agree()


def test_rejoin_selection_equals_a_fresh_nodes():
    """Satellite 1's regression: ``join`` forgets the utility memo."""
    warm, fresh = (
        VitisNode(0, SPACE.node_id(0), {0, 1, 2}, CONFIG, SPACE,
                  UtilityFunction(), random.Random(5))
        for _ in range(2)
    )
    fresh.join(descriptors(CANDIDATES))
    (friend,) = (e.address for e in fresh.rt if e.kind is LinkKind.FRIEND)
    (loser,) = set(CANDIDATES) - set(fresh.rt.addresses)
    # Before the crash the warm node knew better: ``loser`` shares its
    # interests and took the friend slot.
    profiles = {
        a: NodeProfile(a, SPACE.node_id(a), {0, 1, 2} if a == loser else {5})
        for a in CANDIDATES
    }
    assert flat(warm._select_from_pool(pool(), profiles.get))[-1][0] == loser
    warm.join(descriptors(CANDIDATES))
    assert table(warm) == table(fresh)


# ----------------------------------------------------------------------
# Message-driven node: invalidation pushed by every write to what it learned
# ----------------------------------------------------------------------
deployed_ops = st.one_of(
    st.tuples(st.just("own"), profile_writes),
    st.tuples(st.just("truth"), candidates, profile_writes),
    # The sender's current profile arrives (what node 0 learned lags the
    # truth in between: a version names one subscription set, always).
    st.tuples(st.just("profile"), candidates),
    st.tuples(st.just("silence"), candidates),
    st.tuples(st.just("confirm_dead"), candidates),
    st.tuples(st.just("deploy"), bootstraps),
)


def planted(subs):
    """Five joined nodes, no timers, sends swallowed; returns node 0."""
    d = DeployedVitis(
        list(subs), CONFIG, seed=1, auto_start=False,
        rates=PublicationRates(np.arange(1.0, N_TOPICS + 1)),
    )
    for node in d.nodes.values():
        node.join([])
    d.network.send = lambda msg: None
    return d, d.nodes[0]


@settings(max_examples=300, deadline=None)
@given(
    st.lists(topic_sets, min_size=5, max_size=5),
    st.lists(topic_sets, min_size=5, max_size=5),
    st.lists(deployed_ops, min_size=1, max_size=10),
)
def test_message_driven_hit_equals_recompute(subs, later, ops):
    (dw, warm), (dc, cold) = planted(subs), planted(subs)

    def agree():
        hit_equals_recompute(
            warm, warm._profile_from_state, cold, cold._profile_from_state
        )

    # Node 0 starts out having heard from everyone, and everyone has
    # changed since: what it learned differs from the truth it falls
    # back on when a neighbour is lost.
    for d, node in ((dw, warm), (dc, cold)):
        for a in CANDIDATES:
            node.on_message(
                ProfileMessage(src=a, dst=0, profile=d.nodes[a]._profile_payload(True))
            )
            resubscribe(d.nodes[a].profile, later[a])
    agree()
    for op in ops:
        for d, node in ((dw, warm), (dc, cold)):
            if op[0] == "own":
                getattr(node.profile, op[1][0])(op[1][1])
            elif op[0] == "truth":
                getattr(d.nodes[op[1]].profile, op[2][0])(op[2][1])
            elif op[0] == "profile":
                payload = d.nodes[op[1]]._profile_payload(True)
                node.on_message(ProfileMessage(src=op[1], dst=0, profile=payload))
            elif op[0] == "silence":
                # A neighbour silent for the whole staleness threshold is
                # evicted by the next tick's heartbeat step.
                node.rt.replace([(Descriptor(op[1], SPACE.node_id(op[1]), 0), LinkKind.FRIEND)])
                for entry in node.rt:
                    entry.age = CONFIG.staleness_threshold
                node._tick()
                assert op[1] not in node.rt and op[1] not in node.neighbor_state
            elif op[0] == "confirm_dead":
                node.evict_confirmed(op[1])
            else:
                node.deploy(descriptors(sorted(op[1])))
        if op[0] == "deploy":
            assert table(warm) == table(cold)
        agree()
