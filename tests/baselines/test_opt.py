"""Tests for the OPT (SpiderCast-like) baseline."""

import pytest

from repro.baselines.opt import OptProtocol
from repro.core.config import VitisConfig
from tests.conftest import small_subscriptions


@pytest.fixture(scope="module")
def opt():
    p = OptProtocol(small_subscriptions(), VitisConfig(rt_size=8), seed=42, max_degree=8)
    p.run_cycles(30)
    return p


@pytest.fixture(scope="module")
def opt_unbounded():
    p = OptProtocol(small_subscriptions(), VitisConfig(rt_size=8), seed=42, max_degree=None)
    p.run_cycles(30)
    return p


class TestDegreeBound:
    def test_negotiated_degree_never_exceeds_bound(self, opt):
        assert max(opt.degree_distribution()) <= 8

    def test_desired_neighbors_bounded_too(self, opt):
        for a in opt.live_addresses():
            assert len(opt.nodes[a].neighbors) <= 8

    def test_unbounded_can_exceed(self, opt_unbounded):
        assert max(opt_unbounded.degree_distribution()) > 8

    def test_default_budget_is_rt_size(self):
        p = OptProtocol([{1}, {1}], VitisConfig(rt_size=5))
        assert p.nodes[0].max_degree == 5


class TestLinkSemantics:
    def test_links_only_with_shared_topics(self, opt):
        adj = opt.undirected_adjacency()
        for a, neigh in adj.items():
            pa = opt.profile_of(a)
            for b in neigh:
                assert pa.subscriptions & opt.profile_of(b).subscriptions

    def test_adjacency_symmetric(self, opt):
        adj = opt.undirected_adjacency()
        for a, neigh in adj.items():
            for b in neigh:
                assert a in adj[b]

    def test_topic_subgraph_members_subscribe(self, opt):
        topic = opt.topics()[0]
        sg = opt.topic_subgraph(topic)
        for a in sg:
            assert opt.profile_of(a).subscribes_to(topic)


class TestDissemination:
    def test_zero_traffic_overhead(self, opt):
        """OPT's defining property: only subscribers handle messages."""
        for topic in opt.topics()[:20]:
            subs = sorted(opt.subscribers(topic))
            if not subs:
                continue
            rec = opt.publish(topic, subs[0])
            assert rec.total_relay_messages == 0

    def test_unbounded_reaches_everyone(self, opt_unbounded):
        missed = 0
        total = 0
        for topic in opt_unbounded.topics():
            subs = sorted(opt_unbounded.subscribers(topic))
            if len(subs) < 2:
                continue
            rec = opt_unbounded.publish(topic, subs[0])
            total += rec.n_subscribers
            missed += rec.n_subscribers - rec.n_delivered
        assert total > 0
        assert missed / total < 0.02  # coverage keeps subgraphs connected

    def test_bounded_may_miss(self, opt):
        """With a tight budget some topic subgraphs disconnect — the
        paper's core criticism of correlation-only overlays."""
        ratios = []
        for topic in opt.topics():
            subs = sorted(opt.subscribers(topic))
            if len(subs) < 2:
                continue
            rec = opt.publish(topic, subs[0])
            ratios.append(rec.n_delivered / rec.n_subscribers)
        assert min(ratios) <= 1.0
        # The *aggregate* should be below the unbounded variant's.
        assert sum(ratios) / len(ratios) <= 1.0

    def test_external_publisher_uses_access_point(self, opt):
        topic = opt.topics()[0]
        subs = opt.subscribers(topic)
        outsider = next(a for a in opt.live_addresses() if a not in subs)
        rec = opt.publish(topic, outsider)
        # Messages were delivered (to at least the access point) and all
        # of them to interested nodes only.
        assert rec.total_messages >= 1
        assert rec.total_relay_messages == 0

    def test_publish_on_empty_topic(self, opt):
        empty_topic = 10_000
        rec = opt.publish(empty_topic, opt.live_addresses()[0])
        assert rec.n_delivered == rec.n_subscribers
        assert rec.total_messages == 0


class TestChurn:
    def test_leave_and_prune(self):
        p = OptProtocol(small_subscriptions(), VitisConfig(rt_size=8), seed=7)
        p.run_cycles(10)
        victim = p.live_addresses()[0]
        p.leave(victim)
        p.run_cycles(3)
        for a in p.live_addresses():
            assert victim not in p.nodes[a].neighbors

    def test_rejoin(self):
        p = OptProtocol(small_subscriptions(), VitisConfig(rt_size=8), seed=7)
        p.run_cycles(10)
        victim = p.live_addresses()[0]
        p.leave(victim)
        p.run_cycles(2)
        p.join(victim)
        p.run_cycles(5)
        assert p.nodes[victim].neighbors  # reconnected
