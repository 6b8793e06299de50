"""Tests for the Eq. 1 preference function."""

import numpy as np
import pytest

from repro.core.profile import NodeProfile
from repro.core.utility import PublicationRates, UtilityFunction


def profiles():
    A, B, C, D, E, F, G, H = range(8)
    p = NodeProfile(0, 0, {A, B, C})
    q = NodeProfile(1, 1, {C, D})
    r = NodeProfile(2, 2, {C, D, E, F, G, H})
    return p, q, r


class TestPaperExample:
    """Section III-A2 worked example: uniform rates."""

    def test_values(self):
        p, q, r = profiles()
        u = UtilityFunction()
        assert u(p, q) == pytest.approx(0.25)
        assert u(p, r) == pytest.approx(0.125)
        assert u(q, r) == pytest.approx(1 / 3)

    def test_preference_ordering(self):
        """p prefers q over r although it shares exactly one topic with
        both — the paper's point."""
        p, q, r = profiles()
        u = UtilityFunction()
        assert u(p, q) > u(p, r)


class TestBasicProperties:
    def test_symmetry(self):
        p, q, _ = profiles()
        u = UtilityFunction()
        assert u(p, q) == u(q, p)

    def test_self_is_one(self):
        p, _, _ = profiles()
        assert UtilityFunction()(p, p) == 1.0

    def test_disjoint_is_zero(self):
        a = NodeProfile(0, 0, {1, 2})
        b = NodeProfile(1, 1, {3, 4})
        assert UtilityFunction()(a, b) == 0.0

    def test_empty_sets(self):
        a = NodeProfile(0, 0)
        b = NodeProfile(1, 1)
        assert UtilityFunction()(a, b) == 0.0

    def test_identical_sets_is_one(self):
        a = NodeProfile(0, 0, {1, 2})
        b = NodeProfile(1, 1, {1, 2})
        assert UtilityFunction()(a, b) == 1.0


class TestRateWeighting:
    def test_zero_rate_topics_ignored(self):
        """Paper: 'if the publication rate for topic t goes to zero ...
        t is practically ignored'."""
        rates = PublicationRates(np.array([1.0, 1.0, 0.0]))
        a = NodeProfile(0, 0, {0, 2})
        b = NodeProfile(1, 1, {1, 2})
        u = UtilityFunction(rates)
        # Shared topic 2 has rate 0: utility is 0 despite the overlap.
        assert u(a, b) == 0.0

    def test_hot_shared_topic_raises_utility(self):
        rates = PublicationRates(np.array([10.0, 1.0, 1.0]))
        hot_pair = UtilityFunction(rates)(
            NodeProfile(0, 0, {0, 1}), NodeProfile(1, 1, {0, 2})
        )
        cold_pair = UtilityFunction(rates)(
            NodeProfile(2, 2, {1, 0}), NodeProfile(3, 3, {1, 2})
        )
        assert hot_pair > cold_pair

    def test_rate_weighted_flag_off_means_jaccard(self):
        rates = PublicationRates(np.array([10.0, 1.0, 1.0]))
        u = UtilityFunction(rates, rate_weighted=False)
        a = NodeProfile(0, 0, {0, 1})
        b = NodeProfile(1, 1, {0, 2})
        assert u(a, b) == pytest.approx(1 / 3)

    def test_uniform_rates_match_jaccard(self):
        rates = PublicationRates.uniform(8, rate=3.5)
        p, q, r = profiles()
        u = UtilityFunction(rates)
        assert u(p, q) == pytest.approx(0.25)
        assert u(q, r) == pytest.approx(1 / 3)


class TestCaching:
    def test_cache_populates(self):
        p, q, _ = profiles()
        u = UtilityFunction()
        u(p, q)
        assert len(u._pair_cache) == 1
        u(q, p)  # symmetric hit
        assert len(u._pair_cache) == 1

    def test_subscription_change_invalidates(self):
        a = NodeProfile(0, 0, {1, 2})
        b = NodeProfile(1, 1, {2, 3})
        u = UtilityFunction()
        before = u(a, b)
        a.subscribe(3)
        after = u(a, b)
        assert after != before
        assert after == pytest.approx(2 / 3)

    def test_cache_overflow_clears(self, monkeypatch):
        monkeypatch.setattr(UtilityFunction, "MAX_CACHE", 2)
        u = UtilityFunction()
        ps = [NodeProfile(i, i, {i}) for i in range(4)]
        for i in range(3):
            u(ps[i], ps[(i + 1) % 4])
        assert len(u._pair_cache) <= 2


class TestPublicationRates:
    def test_uniform(self):
        r = PublicationRates.uniform(5, 2.0)
        assert r.n_topics == 5
        assert r.rates[3] == 2.0
        assert np.all(r.rates == 2.0)

    def test_sum_over(self):
        r = PublicationRates(np.array([1.0, 2.0, 3.0]))
        assert r.sum_over({0, 2}) == pytest.approx(4.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            PublicationRates(np.array([[1.0]]))
        with pytest.raises(ValueError):
            PublicationRates(np.array([-1.0]))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_constructor_refuses_non_finite(self, bad):
        with pytest.raises(ValueError):
            PublicationRates(np.array([1.0, bad]))
