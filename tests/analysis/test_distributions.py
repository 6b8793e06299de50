"""Tests for distribution utilities."""

import pytest

from repro.analysis.distributions import frequency_histogram, gini


class TestFrequencyHistogram:
    def test_counts(self):
        assert frequency_histogram([1, 1, 2]) == {1: 2, 2: 1}

    def test_sorted_keys(self):
        h = frequency_histogram([5, 1, 3, 1])
        assert list(h) == [1, 3, 5]


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
