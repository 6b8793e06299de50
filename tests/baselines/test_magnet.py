"""Tests for the Magnet-like baseline (1-D structured subscription
clustering) — and for the paper's criticism of it."""

import math

import pytest

from repro.baselines.magnet import MagnetProtocol, interest_embedding
from repro.baselines.rvr import RvrProtocol
from repro.core.config import VitisConfig
from repro.core.identifiers import IdSpace
from repro.experiments.runner import build_vitis, converge, measure
from repro.smallworld.ring import is_ring_converged
from repro.workloads.subscriptions import high_correlation_subscriptions

SPACE = IdSpace()


N_TOPICS = 100


def embed(subs, address):
    return interest_embedding(SPACE, frozenset(subs), address, N_TOPICS)


def topic_position(t):
    """Where topic t sits in interest space (not its hashed id)."""
    return int(SPACE.size * (t % N_TOPICS) / N_TOPICS)


class TestInterestEmbedding:
    def test_identical_interests_embed_nearby(self):
        a = embed({1, 2, 3}, address=10)
        b = embed({1, 2, 3}, address=20)
        assert SPACE.distance(a, b) / SPACE.size < 1e-3  # only jitter apart

    def test_distinct_addresses_break_ties(self):
        assert embed({1, 2, 3}, 10) != embed({1, 2, 3}, 20)

    def test_single_topic_sits_on_topic(self):
        t = 7
        assert SPACE.distance(embed({t}, 1), topic_position(t)) / SPACE.size < 1e-3

    def test_adjacent_topics_embed_adjacent(self):
        """Bucket structure survives: consecutive topics map to nearby
        positions (the property the hashed-id average lacks)."""
        assert SPACE.distance(embed({10, 11}, 1), topic_position(10)) / SPACE.size < 0.05

    def test_empty_subscriptions_fall_back_to_hash(self):
        assert embed(set(), 3) == SPACE.node_id(3)

    def test_deterministic(self):
        assert embed({5, 9}, 2) == embed({9, 5}, 2)

    def test_multi_community_interests_average_away(self):
        """The 1-D failure mode: a node following two far-apart topic
        communities sits near *neither* — its embedding is the midpoint."""
        t1, t2 = 10, 35  # a quarter-circle apart in interest space
        pos = embed({t1, t2}, 1)
        assert SPACE.distance(pos, topic_position(t1)) / SPACE.size > 0.05
        assert SPACE.distance(pos, topic_position(t2)) / SPACE.size > 0.05

    def test_antipodal_interests_fall_back(self):
        t1, t2 = 0, N_TOPICS // 2  # exactly opposite
        assert embed({t1, t2}, 3) == SPACE.node_id(3)


class TestMagnetSystem:
    @pytest.fixture(scope="class")
    def workload(self):
        return high_correlation_subscriptions(120, 300, seed=13)

    @pytest.fixture(scope="class")
    def magnet(self, workload):
        p = MagnetProtocol(workload, VitisConfig(rt_size=10), seed=13, relay_every=0)
        converge(p)
        p.finalize()
        return p

    def test_ring_converges_on_embedded_ids(self, magnet):
        assert is_ring_converged(magnet.ids_by_address(), magnet.successor_map())

    def test_full_delivery(self, magnet):
        col = measure(magnet, 150, seed=14)
        assert col.hit_ratio() == pytest.approx(1.0, abs=0.01)

    def test_similar_nodes_are_ring_adjacent(self, magnet, workload):
        """Subscription clustering in the id space: ring neighbors share
        far more interests than random pairs."""
        import random

        rng = random.Random(1)
        succ = magnet.successor_map()
        live = magnet.live_addresses()

        def jac(a, b):
            sa = magnet.profile_of(a).subscriptions
            sb = magnet.profile_of(b).subscriptions
            u = len(sa | sb)
            return len(sa & sb) / u if u else 0.0

        ring_sim = sum(jac(a, succ[a]) for a in live if succ[a] is not None) / len(live)
        rand_sim = sum(
            jac(rng.choice(live), rng.choice(live)) for _ in range(len(live))
        ) / len(live)
        assert ring_sim > 2 * rand_sim

    def test_beats_rvr_but_loses_to_vitis(self, magnet, workload):
        """The paper's section II ordering on correlated workloads:
        Vitis ≪ Magnet ≤ RVR in traffic overhead — the 1-D embedding
        captures some correlation, the hybrid captures far more."""
        col_m = measure(magnet, 150, seed=14)

        rvr = RvrProtocol(workload, VitisConfig(rt_size=10), seed=13, relay_every=0)
        converge(rvr)
        rvr.finalize()
        col_r = measure(rvr, 150, seed=14)

        vitis = build_vitis(workload, VitisConfig(rt_size=10), seed=13)
        col_v = measure(vitis, 150, seed=14)

        assert col_m.traffic_overhead_pct() <= col_r.traffic_overhead_pct()
        assert col_v.traffic_overhead_pct() < 0.5 * col_m.traffic_overhead_pct()
