"""The shape of a :class:`~repro.sim.metrics.DisseminationRecord`, pinned.

Every producer — the three overlays, each configuration that switches a
branch of the flood, a replayed publish, ``restrict_record`` — hands out
the same thing: two plain
``dict`` tallies ``{address: count >= 1}``, interested keys inside the
topic's subscription index and relay keys outside it.  Records are
read-only: a replayed record shares its tallies with the topic memo.
"""

import random
from functools import partial

import pytest

from repro.baselines.opt import OptProtocol
from repro.baselines.rvr import RvrProtocol
from repro.core.config import VitisConfig
from repro.core.dissemination import _topic_cache
from repro.core.protocol import VitisProtocol
from repro.experiments.runner import measure
from repro.faults import HealingPolicy, MessageLoss
from repro.sim.metrics import restrict_record
from tests.conftest import small_subscriptions
from tests.core.test_node_flood import outcome


@pytest.fixture(scope="module")
def vitis():
    p = VitisProtocol(
        small_subscriptions(), VitisConfig(rt_size=10, n_sw_links=1), seed=7,
        election_every=0, relay_every=0,
    )
    p.run_cycles(40)
    p.finalize()
    return p


@pytest.fixture(scope="module")
def rvr():
    p = RvrProtocol(small_subscriptions(), VitisConfig(rt_size=10), seed=7, relay_every=0)
    p.run_cycles(40)
    p.finalize()
    return p


@pytest.fixture(scope="module")
def opt():
    p = OptProtocol(small_subscriptions(), VitisConfig(rt_size=8), seed=7, max_degree=8)
    p.run_cycles(30)
    return p


def publishers(p, topic):
    """One subscribed publisher and one outsider (the injection walk of
    Vitis / RVR, the access-point draw of OPT)."""
    subs = p.subscribers(topic)
    return min(subs), min(a for a in p.live_addresses() if a not in subs)


def assert_shape(p, rec):
    assert type(rec.interested_msgs) is dict
    assert type(rec.relay_msgs) is dict
    assert rec.total_messages > 0
    assert all(n >= 1 for n in rec.interested_msgs.values())
    assert all(n >= 1 for n in rec.relay_msgs.values())
    members = p.sub_index[rec.topic]
    assert set(rec.interested_msgs) <= members
    assert members.isdisjoint(rec.relay_msgs)


def flood(p, variant, topic, publisher):
    """One record of ``variant``; anything attached is detached again
    (the overlays are shared by the module)."""
    send = partial(p.publish, topic, publisher)
    if variant == "faults":
        p.attach_faults(MessageLoss(0.2, random.Random(5)), HealingPolicy())
        try:
            return send()
        finally:
            p.attach_faults(None)
    rec = send()
    if variant == "replayed":
        rec = send()
    elif variant == "restricted":
        rec = restrict_record(rec, sorted(rec.subscribers)[::2])
    return rec


# Records come from the fast path alone (the nodes' own flood, its
# reference, reports no record).
VARIANTS = ("plain", "faults", "replayed", "restricted")
CASES = [
    (system, "fast", variant)
    for system in ("vitis", "rvr", "opt")
    for variant in VARIANTS
]


@pytest.mark.parametrize("system,path,variant", CASES)
def test_tallies_are_plain_dicts_split_by_the_subscription_index(
    request, system, path, variant
):
    p = request.getfixturevalue(system)
    topic = max(p.topics(), key=lambda t: (len(p.subscribers(t)), -t))
    for publisher in publishers(p, topic):
        assert_shape(p, flood(p, variant, topic, publisher))


def tallies(rec):
    return rec.interested_msgs, rec.relay_msgs, rec.delivered_hops


@pytest.mark.parametrize("system", ["vitis", "rvr", "opt"])
def test_a_replayed_record_shares_the_memo_tallies(request, monkeypatch, system):
    """Records are read-only: a flood that records its outcome keeps its
    own tallies in the topic memo, every replay hands out those same
    objects, and ``measure``'s join-age restriction builds new ones
    instead of editing them.  OPT floods its own topic overlay and keeps
    no memo, so each of its records owns fresh tallies."""
    p = request.getfixturevalue(system)
    p.topology_version += 1  # a cold memo: the overlay is the module's
    topic = sorted(p.topics(), key=lambda t: (-len(p.subscribers(t)), t))[1]
    publisher = min(p.subscribers(topic))
    first = p.publish(topic, publisher)
    replayed = p.publish(topic, publisher)
    assert outcome(replayed) == outcome(first)
    if system == "opt":
        assert all(a is not b for a, b in zip(tallies(first), tallies(replayed)))
        return
    hit = _topic_cache(p, topic).replay[publisher]
    for rec in (first, replayed):
        assert all(a is b for a, b in zip(tallies(rec), hit))

    full = measure(p, 300, seed=3)
    kept = [
        (entry, [dict(d) for d in entry[:3]])
        for memo in p._fwd_cache.values() for entry in memo.replay.values()
    ]
    # Half the population joined too recently to count toward hits; the
    # same seed draws the same events, so every one of them replays.
    young = frozenset(sorted(p.live_addresses())[::2])
    for a in young:
        monkeypatch.setattr(p.nodes[a], "joined_at", p.engine.now)
    restricted = measure(p, 300, seed=3, min_join_age=1.0)
    assert all(young.isdisjoint(r.subscribers) for r in restricted.records)
    assert sum(r.n_delivered for r in restricted.records) < sum(
        r.n_delivered for r in full.records
    )
    assert sum(len(m.replay) for m in p._fwd_cache.values()) == len(kept)
    for entry, before in kept:
        assert [dict(d) for d in entry[:3]] == before
