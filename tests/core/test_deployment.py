"""Tests for the message-driven deployment mode.

The deployed system must converge to the same overlay invariants as the
cycle-driven protocol — ring correctness, full delivery, clusters with
gateways — while exchanging *only* messages (with latency), and must pay
a bounded, explainable overhead premium for living maintenance.
"""

import pytest

from repro.core.config import VitisConfig
from repro.core.deployment import DeployedVitis
from repro.core.protocol import VitisProtocol
from repro.experiments.runner import measure
from repro.sim.network import UniformLatency
from repro.smallworld.ring import is_ring_converged
from repro.workloads.subscriptions import bucket_subscriptions


def small_subs(seed=2):
    return bucket_subscriptions(
        80, 100, n_buckets=10, buckets_per_node=2, topics_per_bucket=5, seed=seed
    )


@pytest.fixture(scope="module")
def deployed():
    d = DeployedVitis(small_subs(), VitisConfig(rt_size=10), seed=2)
    d.run(60)
    return d


class TestConvergence:
    def test_ring_converges(self, deployed):
        assert is_ring_converged(deployed.ids_by_address(), deployed.successor_map())

    def test_routing_tables_fill(self, deployed):
        assert all(
            len(deployed.nodes[a].rt) == 10 for a in deployed.live_addresses()
        )

    def test_neighbor_state_learned_via_messages(self, deployed):
        """Election inputs come only from received profile messages.

        A small fraction of entries may be brand-new (selected in an
        exchange processed after the neighbor's last profile round) —
        those have simply not been heard from *yet*."""
        total = missing = 0
        for a in deployed.live_addresses():
            node = deployed.nodes[a]
            for entry in node.rt:
                total += 1
                info = node.neighbor_state.get(entry.address)
                if info is None or info.version < 0:
                    missing += 1
        assert missing <= 0.05 * total

    def test_every_cluster_elects_gateway(self, deployed):
        from repro.analysis.clusters import topic_clusters

        missing = 0
        for topic in deployed.topics():
            clusters = topic_clusters(deployed.cluster_adjacency(topic))
            gws = set(deployed.gateways_of(topic))
            for cluster in clusters:
                if not (gws & cluster):
                    missing += 1
        # Elections run on one-period-stale info; allow a small transient.
        total_clusters = sum(
            len(topic_clusters(deployed.cluster_adjacency(t)))
            for t in deployed.topics()
        )
        assert missing <= max(2, 0.05 * total_clusters)

    def test_lookup_consistency(self, deployed):
        tid = deployed.topic_id(deployed.topics()[0])
        ends = {
            deployed.lookup(a, tid).rendezvous
            for a in deployed.live_addresses()[:10]
        }
        assert len(ends) == 1


class TestDelivery:
    def test_full_hit_ratio(self, deployed):
        col = measure(deployed, 120, seed=3)
        assert col.hit_ratio() >= 0.99

    def test_overhead_premium_is_bounded(self, deployed):
        """Living maintenance costs more relay traffic than an idealized
        snapshot rebuild, but the premium must stay within a small
        constant factor."""
        col = measure(deployed, 120, seed=3)
        cycle = VitisProtocol(
            small_subs(), VitisConfig(rt_size=10), seed=2,
            election_every=0, relay_every=0,
        )
        cycle.run_cycles(50)
        cycle.finalize()
        col_cycle = measure(cycle, 120, seed=3)
        assert col.traffic_overhead_pct() < 5 * max(3.0, col_cycle.traffic_overhead_pct())


class TestRelayMaintenance:
    def test_relay_children_expire(self):
        d = DeployedVitis(small_subs(), VitisConfig(rt_size=10), seed=5)
        d.run(40)
        # Freeze all gateways by killing every node's timer except one
        # relay node: its child edges must decay after the TTL.
        victim = next(
            a for a in d.live_addresses() if d.nodes[a].relay.parent or d.nodes[a].relay.children
        )
        for a in d.live_addresses():
            if a != victim:
                d.nodes[a].undeploy()
        ttl = d.config.STALENESS_THRESHOLD * d.config.gossip_period
        d.run(ttl + 3)
        # Everything expires except branches the victim itself still
        # refreshes as the (now only) gateway of its own topics.
        own = set(d.nodes[victim].gw_state.gateway_topics())
        assert (set(d.nodes[victim].relay.parent) | set(d.nodes[victim].relay.children)) <= own

    def test_crash_clears_on_redeploy(self):
        d = DeployedVitis(small_subs(), VitisConfig(rt_size=10), seed=5)
        d.run(30)
        victim = d.live_addresses()[0]
        d.nodes[victim].seen_events.add(9)
        d.leave(victim)
        assert not d.nodes[victim].alive
        d.join(victim)
        assert d.nodes[victim].alive
        assert d.nodes[victim].neighbor_state == {}
        assert d.nodes[victim].seen_events == set()

    def test_dead_node_evicted_from_tables(self):
        d = DeployedVitis(small_subs(), VitisConfig(rt_size=10), seed=5)
        d.run(30)
        victim = d.live_addresses()[0]
        d.leave(victim)
        d.run(d.config.STALENESS_THRESHOLD * 3 + 12)
        for a in d.live_addresses():
            assert victim not in d.nodes[a].rt


class TestLatency:
    def test_converges_under_latency(self):
        d = DeployedVitis(
            small_subs(),
            VitisConfig(rt_size=10),
            seed=2,
            latency=UniformLatency(0.01, 0.15, __import__("random").Random(9)),
        )
        d.run(70)
        assert is_ring_converged(d.ids_by_address(), d.successor_map())
        col = measure(d, 80, seed=3)
        assert col.hit_ratio() >= 0.98
