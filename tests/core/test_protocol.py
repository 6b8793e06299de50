"""Tests for the Vitis protocol orchestration."""

import pytest

from repro.core.config import VitisConfig
from repro.core.deployment import DeployedVitis
from repro.core.protocol import VitisProtocol
from repro.core.routing_table import LinkKind
from repro.gossip.cyclon import CyclonService
from repro.smallworld.ring import is_ring_converged
from tests.conftest import small_subscriptions


def tiny_protocol(n=30, seed=7, **kw):
    subs = [frozenset({i % 5, (i + 1) % 5}) for i in range(n)]
    kw.setdefault("election_every", 0)
    kw.setdefault("relay_every", 0)
    return VitisProtocol(subs, VitisConfig(rt_size=6, n_sw_links=1), seed=seed, **kw)


def edges(p):
    """Directed routing-table edges among live nodes."""
    return [(a, b) for a in p.live_addresses() for b, _ in p.nodes[a].rt.links()]


class TestConstruction:
    def test_population_registered(self):
        p = tiny_protocol()
        assert p.live_count() == 30
        assert len(p.nodes) == 30

    def test_subscription_index(self):
        p = tiny_protocol()
        for t in range(5):
            assert p.subscribers(t)
        for t in p.sub_index:
            for a in p.sub_index[t]:
                assert p.nodes[a].profile.subscribes_to(t)

    def test_mapping_subscriptions_accepted(self):
        p = VitisProtocol({10: {1}, 20: {2}}, VitisConfig(rt_size=3, n_sw_links=0),
                          election_every=0, relay_every=0)
        assert sorted(p.nodes) == [10, 20]

    def test_empty_population_rejected(self):
        with pytest.raises(ValueError):
            VitisProtocol([], VitisConfig())

    def test_topic_universe_inferred(self):
        p = tiny_protocol()
        assert p.n_topics == 5

    def test_topic_id_cached_and_consistent(self):
        p = tiny_protocol()
        assert p.topic_id(3) == p.topic_id(3) == p.space.topic_id(3)


class TestConvergence:
    def test_ring_converges(self):
        p = tiny_protocol()
        p.run_cycles(40)
        assert is_ring_converged(p.ids_by_address(), p.successor_map())

    def test_routing_tables_fill(self):
        p = tiny_protocol()
        p.run_cycles(10)
        assert all(len(p.nodes[a].rt) == 6 for a in p.live_addresses())

    def test_lookup_consistency_after_convergence(self):
        p = tiny_protocol()
        p.run_cycles(40)
        tid = p.topic_id(2)
        ends = {p.lookup(a, tid).rendezvous for a in list(p.live_addresses())[:10]}
        assert len(ends) == 1
        assert ends.pop() == p.rendezvous_of(2)

    def test_deterministic_given_seed(self):
        a = tiny_protocol(seed=5)
        b = tiny_protocol(seed=5)
        a.run_cycles(15)
        b.run_cycles(15)
        assert a.successor_map() == b.successor_map()
        assert edges(a) == edges(b)

    def test_different_seeds_differ(self):
        a, b = tiny_protocol(seed=5), tiny_protocol(seed=6)
        a.run_cycles(15)
        b.run_cycles(15)
        assert edges(a) != edges(b)


class TestElectionAndRelays:
    def test_every_cluster_gets_a_gateway(self, converged_vitis):
        p = converged_vitis
        from repro.analysis.clusters import topic_clusters

        for topic in p.topics()[:20]:
            clusters = topic_clusters(p.cluster_adjacency(topic))
            gws = set(p.gateways_of(topic))
            for cluster in clusters:
                assert gws & cluster, f"cluster of topic {topic} lacks a gateway"

    def test_gateway_is_closest_id_within_depth(self, converged_vitis):
        p = converged_vitis
        topic = p.topics()[0]
        tid = p.topic_id(topic)
        for a in p.sub_index[topic]:
            prop = p.nodes[a].gw_state.proposals.get(topic)
            assert prop is not None
            assert prop.hops < p.config.gateway_depth

    def test_relay_paths_reach_common_rendezvous(self, converged_vitis):
        p = converged_vitis
        for topic in p.topics()[:15]:
            gws = p.gateways_of(topic)
            if len(gws) < 2:
                continue
            ends = {p.lookup(g, p.topic_id(topic)).rendezvous for g in gws}
            assert len(ends) == 1

    def test_finalize_idempotent_metrics(self, small_subs):
        p = VitisProtocol(small_subs, VitisConfig(rt_size=10), seed=42,
                          election_every=0, relay_every=0)
        p.run_cycles(50)
        p.finalize()
        first = {a: dict(p.nodes[a].relay.parent) for a in p.nodes}
        p.finalize()
        second = {a: dict(p.nodes[a].relay.parent) for a in p.nodes}
        assert first == second


class TestElectionResultCache:
    def test_hit_after_repair_purged_the_cached_node_equals_a_recompute(self):
        """``repair_relays`` purges stale proposals from the follower
        (``drop_dead``) and re-elects; a further round must commit the
        same, non-empty map — the repair already sat at the fixed point,
        and the purged map does not come back."""
        p = VitisProtocol([{0}, {0}], VitisConfig(), seed=3,
                          election_every=0, relay_every=0)
        tid = p.topic_id(0)
        gateway, follower = sorted(
            p.nodes, key=lambda a: p.space.distance(p.nodes[a].node_id, tid)
        )
        for a, b in ((gateway, follower), (follower, gateway)):
            p.nodes[a].rt.replace([(b, p.nodes[b].node_id, 0, LinkKind.FRIEND)])
        p.finalize()
        state = p.nodes[follower].gw_state
        assert state.proposals.get(0).gw_addr == gateway

        # The gateway (and rendezvous) crashes; the follower still lists
        # it in its routing table.
        p.leave(gateway)
        assert p.repair_relays() == 1
        repaired = dict(state.proposals)
        p.election_round()
        assert state.proposals == repaired != {}

    def test_rounds_at_the_fixed_point_commit_equal_maps(self):
        """What the deleted cache assumed, as a property: on a static
        overlay at the Alg. 5 fixed point a round recomputes exactly what
        is committed.  Two three-node chains on one topic with no link
        between them — two clusters, one gateway each."""
        p = VitisProtocol([{0}] * 6, VitisConfig(), seed=3,
                          election_every=0, relay_every=0)
        for chain in ((0, 1, 2), (3, 4, 5)):
            for i, a in enumerate(chain):
                p.nodes[a].rt.replace([
                    (b, p.nodes[b].node_id, 0, LinkKind.FRIEND)
                    for b in chain[max(0, i - 1):i + 2] if b != a
                ])
        p.finalize()
        gateways = p.gateways_of(0)
        assert [a // 3 for a in gateways] == [0, 1]
        for _ in range(2):
            before = {a: n.gw_state.proposals for a, n in p.nodes.items()}
            p.election_round()
            assert {a: n.gw_state.proposals for a, n in p.nodes.items()} == before
            assert p.gateways_of(0) == gateways


class TestChurnOperations:
    def test_leave_removes_from_live(self):
        p = tiny_protocol()
        p.run_cycles(5)
        p.leave(3)
        assert not p.is_alive(3)
        assert 3 not in p.subscribers(p.nodes[3].profile.subscriptions.__iter__().__next__())

    def test_rejoin_bootstraps(self):
        p = tiny_protocol()
        p.run_cycles(5)
        p.leave(3)
        p.run_cycles(3)
        p.join(3)
        assert p.is_alive(3)
        assert len(p.nodes[3].rt) > 0

    def test_dead_neighbors_evicted_over_time(self):
        p = tiny_protocol()
        p.run_cycles(20)
        p.leave(3)
        # Full cleanup takes STALENESS_THRESHOLD cycles for the routing
        # table *plus* the peer-sampling TTL during which stale descriptors
        # can still be re-selected from sample buffers.
        p.run_cycles(p.config.STALENESS_THRESHOLD + 10 + 5)
        for a in p.live_addresses():
            assert 3 not in p.nodes[a].rt

    def test_subscribe_unsubscribe(self):
        p = tiny_protocol()
        p.subscribe(0, 99)
        assert 0 in p.subscribers(99)
        p.unsubscribe(0, 99)
        assert 0 not in p.subscribers(99)

    @pytest.mark.parametrize("deployed", [False, True], ids=["cycles", "messages"])
    def test_a_runtime_subscription_reaches_the_next_publish(self, deployed):
        """The topic memo is keyed on ``topology_version`` (in message
        mode the clock, which does not move here), so a changed profile
        must open a new one: the next event's audience follows it."""
        if deployed:
            p = DeployedVitis([frozenset({i % 5, (i + 1) % 5}) for i in range(40)],
                              VitisConfig(rt_size=6), seed=7)
            p.run(5)
        else:
            p = tiny_protocol(n=40)
            p.run_cycles(10)
        publisher = min(p.subscribers(0))
        joiner = next(a for a in p.live_addresses() if a not in p.subscribers(0))
        assert joiner not in p.publish(0, publisher).subscribers
        p.subscribe(joiner, 0)
        assert joiner in p.publish(0, publisher).subscribers
        p.unsubscribe(joiner, 0)
        assert joiner not in p.publish(0, publisher).subscribers
        p.subscribe(joiner, 0)
        assert joiner in p.publish(0, publisher).subscribers
        p.unsubscribe(joiner, 0)
        assert joiner not in p.publish(0, publisher).subscribers


class TestSamplerSwap:
    def test_cyclon_sampler_converges_too(self):
        p = tiny_protocol(sampler_cls=CyclonService)
        assert isinstance(p.nodes[0].ps, CyclonService)
        p.run_cycles(45)
        assert is_ring_converged(p.ids_by_address(), p.successor_map())
