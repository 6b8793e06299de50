"""Tests for distribution utilities."""

import numpy as np
import pytest

from repro.analysis.distributions import (
    frequency_histogram,
    gini,
    log_binned_histogram,
)


class TestFrequencyHistogram:
    def test_counts(self):
        assert frequency_histogram([1, 1, 2]) == {1: 2, 2: 1}

    def test_sorted_keys(self):
        h = frequency_histogram([5, 1, 3, 1])
        assert list(h) == [1, 3, 5]


class TestLogBinned:
    def test_density_positive(self):
        rng = np.random.default_rng(0)
        samples = (1 - rng.random(5000)) ** (-1.0 / 1.5)
        centers, density = log_binned_histogram(samples, n_bins=10)
        assert len(centers) == len(density)
        assert (density > 0).all()

    def test_power_law_slope(self):
        """Log-binned density of a power law is a straight line in log-log;
        recover the exponent within tolerance."""
        rng = np.random.default_rng(0)
        alpha = 2.0
        samples = (1 - rng.random(100000)) ** (-1.0 / (alpha - 1.0))
        centers, density = log_binned_histogram(samples, n_bins=12)
        slope, _ = np.polyfit(np.log(centers[:8]), np.log(density[:8]), 1)
        assert slope == pytest.approx(-alpha, abs=0.4)

    def test_degenerate_inputs(self):
        c, d = log_binned_histogram([])
        assert len(c) == 0
        c, d = log_binned_histogram([5.0, 5.0])
        assert list(c) == [5.0] and list(d) == [2.0]

    def test_zero_samples_dropped(self):
        c, d = log_binned_histogram([0, 0, 1, 2, 4])
        assert d.sum() > 0


class TestGini:
    def test_equal_distribution_is_zero(self):
        assert gini([5, 5, 5, 5]) == pytest.approx(0.0)

    def test_concentrated_distribution_near_one(self):
        assert gini([0] * 99 + [100]) > 0.9

    def test_empty_and_zero(self):
        assert gini([]) == 0.0
        assert gini([0, 0]) == 0.0

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            gini([-1, 2])

    def test_known_value(self):
        # Two-person economy, one holds everything: G = 1/2.
        assert gini([0, 1]) == pytest.approx(0.5)
