"""Property-based tests for CompositeFault.

The composition laws the healing logic relies on: a composite's answers
are order-invariant over its members (for deterministic members — the
stochastic ones consume a shared RNG stream, where order *is* the
semantics), and every drop is attributed to exactly one member, so the
composite's ``injected`` is always the sum of its members' counts.
"""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.faults import CompositeFault, MessageLoss, Partition

addresses = st.integers(min_value=0, max_value=19)

#: Recipes for deterministic member models.  Every entry builds a *fresh*
#: instance per call so each permutation starts with zeroed counters;
#: MessageLoss gets its own RNG per instance (rate 0 never draws, rate 1
#: always drops — both order-independent).
_MEMBER_RECIPES = [
    lambda: Partition(([0, 1, 2, 3, 4, 5, 6, 7, 8, 9],
                       [10, 11, 12, 13, 14, 15, 16, 17, 18, 19])),
    lambda: Partition(([0, 2, 4, 6, 8], [1, 3, 5, 7, 9]),
                      start=1.0, heal_at=5.0),
    lambda: MessageLoss(0.0, random.Random(0)),
    lambda: MessageLoss(1.0, random.Random(0)),
]

member_sets = st.lists(
    st.sampled_from(range(len(_MEMBER_RECIPES))), min_size=1, max_size=4
)
queries = st.lists(
    st.tuples(addresses, addresses,
              st.sampled_from(["notify", "lookup", "heartbeat"]),
              st.sampled_from([0.0, 1.0, 2.0, 4.5, 10.0])),
    min_size=1, max_size=30,
)
permutation_seeds = st.integers(min_value=0, max_value=999)


def _composite(indices, order_seed=None):
    members = [_MEMBER_RECIPES[i]() for i in indices]
    if order_seed is not None:
        random.Random(order_seed).shuffle(members)
    return CompositeFault(members)


class TestOrderInvariance:
    @given(member_sets, queries, permutation_seeds)
    @settings(max_examples=80)
    def test_drop_sequence_is_permutation_invariant(self, idx, qs, pseed):
        a, b = _composite(idx), _composite(idx, order_seed=pseed)
        drops_a = [a.drop(s, d, k, t) for s, d, k, t in qs]
        drops_b = [b.drop(s, d, k, t) for s, d, k, t in qs]
        assert drops_a == drops_b

    @given(member_sets, queries, permutation_seeds)
    @settings(max_examples=80)
    def test_severed_is_order_invariant(self, idx, qs, pseed):
        a, b = _composite(idx), _composite(idx, order_seed=pseed)
        for s, d, k, t in qs:
            assert a.severed(s, d, t) == b.severed(s, d, t)


class TestInjectedAccounting:
    @given(member_sets, queries)
    @settings(max_examples=80)
    def test_injected_equals_true_drops_equals_member_sum(self, idx, qs):
        c = _composite(idx)
        true_drops = sum(c.drop(s, d, k, t) for s, d, k, t in qs)
        assert c.injected == true_drops
        assert c.injected == sum(m.injected for m in c.models)

    @given(member_sets, queries)
    @settings(max_examples=80)
    def test_each_drop_attributed_to_exactly_one_member(self, idx, qs):
        """The short-circuit contract: a claimed transmission charges one
        member only, so per-member counts partition the total."""
        c = _composite(idx)
        before = [m.injected for m in c.models]
        for s, d, k, t in qs:
            claimed = c.drop(s, d, k, t)
            after = [m.injected for m in c.models]
            bumps = sum(a - b for a, b in zip(after, before))
            assert bumps == (1 if claimed else 0)
            before = after


class TestCompositionSemantics:
    @given(member_sets, queries)
    @settings(max_examples=60)
    def test_severed_is_the_disjunction_of_members(self, idx, qs):
        c = _composite(idx)
        singles = [CompositeFault([_MEMBER_RECIPES[i]()]) for i in idx]
        for s, d, k, t in qs:
            assert c.severed(s, d, t) == any(
                m.severed(s, d, t) for m in singles
            )
