"""Property-based tests for the Eq. 1 utility function."""

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.profile import NodeProfile
from repro.core.utility import PublicationRates, UtilityFunction

N_TOPICS = 30
topic_sets = st.frozensets(st.integers(min_value=0, max_value=N_TOPICS - 1), max_size=15)
rate_arrays = st.lists(
    st.floats(min_value=0.0, max_value=100.0, allow_nan=False),
    min_size=N_TOPICS,
    max_size=N_TOPICS,
)
#: Finite non-negative rates of any magnitude, or any floats at all.
any_rate_arrays = st.one_of(
    st.lists(st.floats(min_value=0.0, allow_infinity=False),
             min_size=N_TOPICS, max_size=N_TOPICS),
    st.lists(st.floats(), min_size=N_TOPICS, max_size=N_TOPICS),
)


def prof(addr, subs):
    return NodeProfile(addr, addr, subs)


class TestJaccardProperties:
    @given(topic_sets, topic_sets)
    def test_range(self, a, b):
        u = UtilityFunction()(prof(0, a), prof(1, b))
        assert 0.0 <= u <= 1.0

    @given(topic_sets, topic_sets)
    def test_symmetry(self, a, b):
        f = UtilityFunction()
        assert f(prof(0, a), prof(1, b)) == f(prof(1, b), prof(0, a))

    @given(topic_sets)
    def test_identical_sets(self, a):
        expected = 1.0 if a else 0.0
        assert UtilityFunction()(prof(0, a), prof(1, a)) == expected

    @given(topic_sets, topic_sets)
    def test_matches_direct_jaccard(self, a, b):
        u = UtilityFunction()(prof(0, a), prof(1, b))
        union = len(a | b)
        expected = len(a & b) / union if union else 0.0
        assert u == expected

    @given(topic_sets, topic_sets)
    def test_zero_iff_disjoint(self, a, b):
        u = UtilityFunction()(prof(0, a), prof(1, b))
        assert (u == 0.0) == (not (a & b) or not (a | b))


class TestRateWeightedProperties:
    @given(topic_sets, topic_sets, rate_arrays)
    @settings(max_examples=80)
    def test_range(self, a, b, rates):
        f = UtilityFunction(PublicationRates(np.array(rates)))
        u = f(prof(0, a), prof(1, b))
        assert 0.0 <= u <= 1.0 + 1e-9

    @given(topic_sets, topic_sets, rate_arrays)
    @settings(max_examples=80)
    def test_symmetry(self, a, b, rates):
        f = UtilityFunction(PublicationRates(np.array(rates)))
        assert f(prof(0, a), prof(1, b)) == f(prof(1, b), prof(0, a))

    @given(topic_sets, topic_sets, rate_arrays)
    @settings(max_examples=80)
    def test_matches_direct_formula(self, a, b, rates):
        r = np.array(rates)
        f = UtilityFunction(PublicationRates(r))
        u = f(prof(0, a), prof(1, b))
        inter = sum(r[t] for t in a & b)
        union = sum(r[t] for t in a | b)
        expected = inter / union if union > 0 else 0.0
        assert abs(u - expected) < 1e-9

    @given(topic_sets, topic_sets, st.floats(min_value=0.1, max_value=50))
    def test_uniform_rates_reduce_to_jaccard(self, a, b, rate):
        f = UtilityFunction(PublicationRates(np.full(N_TOPICS, rate)))
        g = UtilityFunction()
        assert abs(f(prof(0, a), prof(1, b)) - g(prof(0, a), prof(1, b))) < 1e-9

    @given(topic_sets, topic_sets, any_rate_arrays)
    @settings(max_examples=300)
    def test_in_unit_interval_for_any_rates_accepted(self, a, b, rates):
        """Any float at all is offered to the constructor; whatever is
        accepted keeps Eq. 1 in [0, 1] — the precondition of Alg. 4's
        friend ranking."""
        valid = all(math.isfinite(r) and r >= 0 for r in rates)
        try:
            table = PublicationRates(np.array(rates))
        except ValueError:
            assert not valid
            return
        assert valid
        with np.errstate(over="ignore", invalid="ignore"):  # sums past 1.8e308
            u = UtilityFunction(table)(prof(0, a), prof(1, b))
        assert 0.0 <= u <= 1.0

    @given(topic_sets, topic_sets, rate_arrays)
    @settings(max_examples=50)
    def test_cache_transparent(self, a, b, rates):
        f = UtilityFunction(PublicationRates(np.array(rates)))
        first = f(prof(0, a), prof(1, b))
        second = f(prof(0, a), prof(1, b))
        assert first == second
