"""Tests for the synthetic Twitter trace."""

import numpy as np
import pytest

from repro.workloads.twitter import TwitterTrace, powerlaw_mle


@pytest.fixture(scope="module")
def trace():
    return TwitterTrace(2000, seed=3)


class TestGeneration:
    def test_deterministic(self):
        a = TwitterTrace(300, seed=1)
        b = TwitterTrace(300, seed=1)
        assert a.following == b.following

    def test_seed_changes_graph(self):
        a = TwitterTrace(300, seed=1)
        b = TwitterTrace(300, seed=2)
        assert a.following != b.following

    def test_no_self_follows(self, trace):
        for u, f in trace.following.items():
            assert u not in f

    def test_followers_is_inverse(self, trace):
        for u, f in trace.following.items():
            for v in f:
                assert u in trace.followers[v]

    def test_out_degrees_respect_floor_and_cap(self, trace):
        outs = trace.out_degrees()
        assert min(outs) >= 1
        assert max(outs) <= trace.max_out

    def test_validation(self):
        with pytest.raises(ValueError):
            TwitterTrace(1)
        with pytest.raises(ValueError):
            TwitterTrace(10, alpha=1.0)
        with pytest.raises(ValueError):
            TwitterTrace(10, min_out=0)


class TestStatistics:
    def test_alpha_close_to_paper(self, trace):
        s = trace.summary()
        assert 1.3 < s["alpha_in"] < 2.1
        assert 1.3 < s["alpha_out"] < 2.1

    def test_heavy_tail_present(self, trace):
        ins = trace.in_degrees()
        assert max(ins) > 10 * np.mean(ins)

    def test_summary_consistency(self, trace):
        s = trace.summary()
        assert s["relations"] == trace.n_relations
        assert s["mean_in_degree"] == pytest.approx(s["mean_out_degree"])

    def test_degree_histogram_sums_to_population(self, trace):
        for kind in ("in", "out"):
            hist = trace.degree_histogram(kind)
            assert sum(hist.values()) == trace.n_users


class TestPowerlawMLE:
    def test_recovers_known_exponent(self):
        rng = np.random.default_rng(0)
        alpha = 2.5
        xs = (1.0 - rng.random(50000)) ** (-1.0 / (alpha - 1.0))
        # Flooring to integers biases the continuous MLE low near the
        # cut-off; fit the tail (xmin=10) where discretisation is mild.
        est = powerlaw_mle(np.floor(10 * xs).astype(int), xmin=10)
        assert est == pytest.approx(alpha, abs=0.25)

    def test_empty_returns_nan(self):
        assert np.isnan(powerlaw_mle([], xmin=1))
        assert np.isnan(powerlaw_mle([0], xmin=1))


class TestBfsSample:
    def test_target_size_reached(self, trace):
        sample = trace.bfs_sample(300, seed=1)
        assert 300 <= sample.n_nodes <= 310

    def test_dense_reindexing(self, trace):
        sample = trace.bfs_sample(300, seed=1)
        subs = sample.subscriptions()
        assert all(0 <= t < sample.n_nodes for s in subs for t in s)

    def test_subscriptions_match_graph(self, trace):
        sample = trace.bfs_sample(300, seed=1)
        for i, u in enumerate(sample.users):
            original = {v for v in trace.following[u] if v in sample.index}
            assert sample.following[i] == frozenset(sample.index[v] for v in original)

    def test_sample_preserves_degree_law(self, trace):
        """Section IV-E: the sampling must preserve the distribution shape."""
        sample = trace.bfs_sample(600, seed=1)
        s = sample.summary()
        assert 1.2 < s["alpha_in"] < 2.3

    def test_deterministic(self, trace):
        a = trace.bfs_sample(200, seed=5)
        b = trace.bfs_sample(200, seed=5)
        assert a.users == b.users

    def test_mean_subscriptions_positive(self, trace):
        sample = trace.bfs_sample(300, seed=1)
        assert sum(map(len, sample.following)) / len(sample.following) > 1
