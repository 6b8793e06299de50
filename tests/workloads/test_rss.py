"""Tests for the RSS/micronews-like workload."""

import numpy as np
import pytest

from repro.workloads.rss import RssWorkload


@pytest.fixture(scope="module")
def workload():
    return RssWorkload(n_users=400, n_feeds=300, seed=5)


class TestGeneration:
    def test_deterministic(self):
        a = RssWorkload(100, 200, seed=1)
        b = RssWorkload(100, 200, seed=1)
        assert a.subscriptions() == b.subscriptions()
        assert a.memberships == b.memberships

    def test_seed_changes_output(self):
        a = RssWorkload(100, 200, seed=1)
        b = RssWorkload(100, 200, seed=2)
        assert a.subscriptions() != b.subscriptions()

    def test_feeds_in_range(self, workload):
        for s in workload.subscriptions():
            assert all(0 <= f < workload.n_feeds for f in s)

    def test_every_user_subscribes(self, workload):
        assert all(len(s) >= 1 for s in workload.subscriptions())

    def test_validation(self):
        with pytest.raises(ValueError):
            RssWorkload(0)
        with pytest.raises(ValueError):
            RssWorkload(10, community_bias=2.0)
        with pytest.raises(ValueError):
            RssWorkload(10, mean_subscriptions=0.5)


class TestStatistics:
    def test_zipf_popularity(self, workload):
        """Top feeds vastly more popular than median — unlike the
        uniform-popularity bucket models."""
        s = workload.summary()
        assert s["max_audience"] > 5 * max(1.0, s["median_audience"])

    def test_subscription_counts_skewed(self, workload):
        counts = [len(x) for x in workload.subscriptions()]
        assert max(counts) > 2 * np.mean(counts)

    def test_community_correlation(self, workload):
        """Same-community pairs share more feeds than cross-community
        pairs — the co-subscription correlation the paper's premise
        needs."""
        import random

        rng = random.Random(3)
        subs = workload.subscriptions()
        same, cross = [], []
        users = list(range(workload.n_users))
        for _ in range(4000):
            a, b = rng.choice(users), rng.choice(users)
            if a == b:
                continue
            inter = len(subs[a] & subs[b])
            union = len(subs[a] | subs[b])
            j = inter / union if union else 0.0
            if workload.memberships[a] == workload.memberships[b]:
                same.append(j)
            else:
                cross.append(j)
        assert np.mean(same) > 1.5 * np.mean(cross)

    def test_rates_track_popularity(self, workload):
        rates = workload.rates()
        assert rates.n_topics == workload.n_feeds
        assert rates.rates[0] > rates.rates[workload.n_feeds - 1]
        assert np.mean(rates.rates) == pytest.approx(1.0)


class TestEndToEnd:
    def test_vitis_on_rss_workload(self):
        """The in-between regime: skewed popularity + skewed correlation.
        Vitis must still deliver everything with low overhead."""
        from repro.core.config import VitisConfig
        from repro.experiments.runner import build_vitis, measure

        w = RssWorkload(n_users=120, n_feeds=150, seed=7)
        vitis = build_vitis(
            w.subscriptions(), VitisConfig(rt_size=10), seed=7, rates=w.rates()
        )
        col = measure(vitis, 150, seed=8)
        assert col.hit_ratio() == pytest.approx(1.0, abs=0.01)
        assert col.traffic_overhead_pct() < 35.0
