"""Tests for publication-rate models."""

import numpy as np
import pytest

from repro.core.utility import PublicationRates
from repro.workloads.publication import power_law_rates, sample_topics


class TestPowerLaw:
    def test_normalised_mean_is_one(self):
        for alpha in (0.3, 1.0, 3.0):
            r = power_law_rates(100, alpha)
            assert np.mean(r.rates) == pytest.approx(1.0)

    def test_skew_grows_with_alpha(self):
        flat = power_law_rates(100, 0.3)
        steep = power_law_rates(100, 3.0)
        assert steep.rates.max() > flat.rates.max()
        # Top topic share of all events:
        assert steep.rates.max() / steep.rates.sum() > 0.5  # "almost all on one topic"

    def test_alpha_zero_is_uniform(self):
        r = power_law_rates(10, 0.0)
        assert np.all(r.rates == r.rates[0])

    def test_permutation_preserves_multiset(self):
        a = power_law_rates(50, 1.5, seed=None)
        b = power_law_rates(50, 1.5, seed=9)
        assert sorted(a.rates) == pytest.approx(sorted(b.rates))
        assert list(a.rates) != list(b.rates)

    def test_validation(self):
        with pytest.raises(ValueError):
            power_law_rates(0, 1.0)
        with pytest.raises(ValueError):
            power_law_rates(10, -1.0)


class TestSampleTopics:
    def test_respects_restriction(self):
        rng = np.random.default_rng(1)
        r = power_law_rates(100, 1.0)
        drawn = sample_topics(r, 50, rng, restrict=[3, 5, 9])
        assert set(drawn) <= {3, 5, 9}

    def test_hot_topics_drawn_more(self):
        rng = np.random.default_rng(1)
        r = power_law_rates(50, 2.0, seed=None)  # rank == topic id
        drawn = sample_topics(r, 2000, rng)
        counts = np.bincount(drawn, minlength=50)
        assert counts[0] > counts[25]

    def test_zero_rate_restriction_rejected(self):
        rng = np.random.default_rng(1)
        r = PublicationRates(np.zeros(10))
        with pytest.raises(ValueError):
            sample_topics(r, 5, rng)
