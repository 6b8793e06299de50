"""The shape of a :class:`~repro.sim.metrics.DisseminationRecord`, pinned.

Every producer — the three overlays, the fast path and the reference
path, each configuration that switches a branch of the flood, a replayed
publish, ``restrict_record`` — hands out the same thing: two plain
``dict`` tallies ``{address: count >= 1}``, interested keys inside the
topic's subscription index and relay keys outside it, owned by the
record alone.
"""

import random
from functools import partial

import pytest

from repro.baselines.opt import OptProtocol
from repro.baselines.rvr import RvrProtocol
from repro.core.config import VitisConfig
from repro.core.dissemination import disseminate, disseminate_via_network
from repro.core.protocol import VitisProtocol
from repro.faults import HealingPolicy, MessageLoss
from repro.sim.metrics import restrict_record
from tests.conftest import small_subscriptions
from tests.property.test_dissemination_paths import outcome


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


def flood(p, path, variant, topic, publisher):
    """One record of ``variant`` through ``path``; anything attached is
    detached again (the overlays are shared by the module)."""
    if path == "network":
        send = partial(disseminate_via_network, p, topic, publisher)
    elif variant == "pulls":
        send = partial(disseminate, p, topic, publisher, count_pulls=True)
    else:
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


# The reference path has neither pulls nor a memo to replay from; OPT
# floods its own topic overlay: no reference path, no pull accounting.
VARIANTS = {
    "fast": ("plain", "faults", "pulls", "replayed", "restricted"),
    "network": ("plain", "faults", "restricted"),
}
CASES = [
    (system, path, variant)
    for system in ("vitis", "rvr", "opt")
    for path, variants in VARIANTS.items()
    for variant in variants
    if not (system == "opt" and (path == "network" or variant == "pulls"))
]


@pytest.mark.parametrize("system,path,variant", CASES)
def test_tallies_are_plain_dicts_split_by_the_subscription_index(
    request, system, path, variant
):
    p = request.getfixturevalue(system)
    topic = max(p.topics(), key=lambda t: (len(p.subscribers(t)), -t))
    for publisher in publishers(p, topic):
        assert_shape(p, flood(p, path, variant, topic, publisher))


@pytest.mark.parametrize("system", ["vitis", "rvr", "opt"])
def test_a_replayed_record_does_not_alias_the_memo(request, system):
    p = request.getfixturevalue(system)
    topic = sorted(p.topics(), key=lambda t: (-len(p.subscribers(t)), t))[1]
    publisher = min(p.subscribers(topic))
    first = p.publish(topic, publisher)
    expected = outcome(first)
    replayed = p.publish(topic, publisher)
    assert outcome(replayed) == expected
    for rec in (first, replayed):
        rec.interested_msgs[-1] = 99
        rec.relay_msgs.clear()
        rec.delivered_hops[-1] = 0
    assert outcome(p.publish(topic, publisher)) == expected
