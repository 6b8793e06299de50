"""Tests for the RVR (Scribe-like) baseline."""

import pytest

from repro.baselines.rvr import RvrProtocol
from repro.core.config import VitisConfig
from repro.core.routing_table import LinkKind
from repro.smallworld.ring import is_ring_converged
from tests.conftest import small_subscriptions


@pytest.fixture(scope="module")
def rvr():
    p = RvrProtocol(
        small_subscriptions(),
        VitisConfig(rt_size=10),
        seed=42,
        relay_every=0,
    )
    p.run_cycles(50)
    p.finalize()
    return p


class TestStructure:
    def test_no_friend_links(self, rvr):
        for a in rvr.live_addresses():
            kinds = [e.kind for e in rvr.nodes[a].rt]
            assert LinkKind.FRIEND not in kinds

    def test_all_slots_structural(self, rvr):
        assert rvr.config.n_sw_links == rvr.config.rt_size - 2
        assert rvr.config.n_friends == 0

    def test_ring_converges(self, rvr):
        assert is_ring_converged(rvr.ids_by_address(), rvr.successor_map())

    def test_no_gateway_election(self, rvr):
        # Gateways are simply the subscribers.
        topic = rvr.topics()[0]
        assert rvr.gateways_of(topic) == sorted(rvr.subscribers(topic))

    def test_no_cluster_adjacency(self, rvr):
        assert rvr.cluster_adjacency(rvr.topics()[0]) == {}


class TestTrees:
    def test_every_subscriber_on_tree_or_rendezvous(self, rvr):
        for topic in rvr.topics()[:25]:
            subs = rvr.subscribers(topic)
            rdv = rvr.rendezvous_of(topic)
            for a in subs:
                node = rvr.nodes[a]
                assert node.relay.on_tree(topic) or a == rdv

    def test_tree_size_at_least_subscribers(self, rvr):
        topic = max(rvr.topics(), key=lambda t: len(rvr.subscribers(t)))
        n_subs = len(rvr.subscribers(topic))
        on_tree = [a for a in rvr.live_addresses() if rvr.nodes[a].relay.on_tree(topic)]
        assert len(on_tree) >= n_subs - 1


class TestDissemination:
    def test_full_hit_ratio(self, rvr):
        for topic in rvr.topics()[:30]:
            subs = sorted(rvr.subscribers(topic))
            if not subs:
                continue
            rec = rvr.publish(topic, subs[0])
            assert rec.hit_ratio() == 1.0, f"topic {topic}"

    def test_relay_traffic_exists(self, rvr):
        """Scribe trees route through uninterested intermediaries."""
        total_relay = 0
        for topic in rvr.topics()[:30]:
            subs = sorted(rvr.subscribers(topic))
            if subs:
                total_relay += rvr.publish(topic, subs[0]).total_relay_messages
        assert total_relay > 0

    def test_off_tree_publisher_routes_to_rendezvous(self, rvr):
        topic = rvr.topics()[0]
        subs = rvr.subscribers(topic)
        outsider = next(
            a for a in rvr.live_addresses()
            if a not in subs and not rvr.nodes[a].relay.on_tree(topic)
        )
        rec = rvr.publish(topic, outsider)
        assert rec.hit_ratio() == 1.0
        assert rec.total_relay_messages > 0
