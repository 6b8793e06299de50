"""Integration tests for *interest* churn (section III-D).

Nodes may change what they subscribe to at runtime; "the friend selection
mechanism in the proceeding rounds captures this change and routing tables
are updated accordingly" — clusters re-form around the new interests, new
gateways get elected, and delivery recovers without any restart.
"""

import pytest

from repro.core.config import VitisConfig
from repro.core.protocol import VitisProtocol
from repro.experiments.runner import measure
from repro.workloads.subscriptions import bucket_subscriptions

N, TOPICS = 100, 120


def build():
    subs = bucket_subscriptions(
        N, TOPICS, n_buckets=12, buckets_per_node=2, topics_per_bucket=5, seed=8
    )
    p = VitisProtocol(subs, VitisConfig(rt_size=10), seed=8,
                      election_every=0, relay_every=0)
    p.run_cycles(45)
    p.finalize()
    return p


def move(p, address, topics):
    """Swap *address*'s interests for *topics* through the protocol."""
    old = p.nodes[address].profile.subscriptions
    for t in old.difference(topics):
        p.unsubscribe(address, t)
    for t in set(topics).difference(old):
        p.subscribe(address, t)


class TestInterestMigration:
    def test_index_follows_subscription_changes(self):
        p = build()
        node = p.live_addresses()[0]
        old = set(p.nodes[node].profile.subscriptions)
        new_topic = next(t for t in range(TOPICS) if t not in old)
        p.subscribe(node, new_topic)
        assert node in p.subscribers(new_topic)
        victim = next(iter(old))
        p.unsubscribe(node, victim)
        assert node not in p.subscribers(victim)

    def test_delivery_recovers_after_mass_migration(self):
        """A quarter of the population swaps to a completely different
        interest bucket; after re-gossip + re-finalize the system is back
        to full delivery on the *new* subscriptions."""
        p = build()
        movers = p.live_addresses()[: N // 4]
        target_bucket = range(0, 10)
        for a in movers:
            move(p, a, target_bucket)

        p.run_cycles(25)     # friend selection re-clusters
        p.finalize()
        col = measure(p, 200, seed=9)
        assert col.hit_ratio() > 0.995

    def test_movers_get_reclustered(self):
        p = build()
        mover = p.live_addresses()[0]
        move(p, mover, range(0, 10))
        p.run_cycles(25)
        p.finalize()
        # The mover's friends now overlap its new interests.
        from repro.core.routing_table import LinkKind

        friends = [
            e.address
            for e in p.nodes[mover].rt
            if e.kind is LinkKind.FRIEND
        ]
        overlapping = sum(
            1
            for f in friends
            if p.profile_of(f).subscriptions & p.nodes[mover].profile.subscriptions
        )
        assert friends and overlapping >= len(friends) // 2

    def test_gateway_moves_with_interest(self):
        """If the elected gateway unsubscribes, its cluster elects a new
        one within d rounds of elections."""
        p = build()
        topic = max(p.topics(), key=lambda t: len(p.subscribers(t)))
        gws = p.gateways_of(topic)
        assert gws
        leaver = gws[0]
        p.unsubscribe(leaver, topic)
        p.finalize()
        new_gws = p.gateways_of(topic)
        assert leaver not in new_gws
        assert new_gws, "cluster left without a gateway"
