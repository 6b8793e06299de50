"""Property-based tests for partial views."""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.gossip.view import Descriptor, PartialView

descriptor = st.builds(
    Descriptor,
    address=st.integers(min_value=0, max_value=50),
    node_id=st.integers(min_value=0, max_value=1 << 32),
    age=st.integers(min_value=0, max_value=30),
)
descriptor_lists = st.lists(descriptor, max_size=40)


class TestInvariants:
    @given(st.integers(min_value=1, max_value=10), descriptor_lists)
    def test_unique_per_address(self, size, descs):
        v = PartialView(size, descs)
        addrs = [d.address for d in v]
        assert len(addrs) == len(set(addrs))

    @given(st.integers(min_value=1, max_value=10), descriptor_lists)
    def test_trim_respects_bound(self, size, descs):
        v = PartialView(size, descs)
        v.trim()
        assert len(v) <= size

    @given(st.integers(min_value=1, max_value=10), descriptor_lists, st.integers())
    def test_trim_with_rng_respects_bound(self, size, descs, seed):
        v = PartialView(size, descs)
        v.trim(random.Random(seed))
        assert len(v) <= size

    @given(descriptor_lists)
    def test_insert_keeps_minimum_age(self, descs):
        v = PartialView(100)
        for d in descs:
            v.insert(d)
        by_addr = {}
        for d in descs:
            by_addr[d.address] = min(by_addr.get(d.address, 1 << 60), d.age)
        for d in v:
            assert d.age == by_addr[d.address]

    @given(descriptor_lists)
    def test_trim_keeps_freshest(self, descs):
        v = PartialView(5, descs)
        before = sorted(d.age for d in v)
        v.trim()
        after = sorted(d.age for d in v)
        # The kept ages are the smallest |after| of the original multiset.
        assert after == before[: len(after)]

    @given(descriptor_lists, st.integers(min_value=0, max_value=40))
    def test_drop_older_than(self, descs, cutoff):
        v = PartialView(100, descs)
        v.drop_older_than(cutoff)
        assert all(d.age <= cutoff for d in v)

    @given(descriptor_lists, st.integers(min_value=1, max_value=5))
    def test_age_all_uniform_shift(self, descs, by):
        v = PartialView(100, descs)
        before = {d.address: d.age for d in v}
        v.age_all(by)
        assert all(d.age == before[d.address] + by for d in v)


def naive_trim(view, rng):
    """``PartialView.trim`` transcribed: one ``(age, tie-breaker)`` key
    per slot, drawn in slot order, one sort, keep the first
    ``max_size``; returns the three columns."""
    addrs, ids, ages = view.snapshot_fields()
    n = len(addrs)
    if n <= view.max_size:
        return addrs, ids, ages
    keys = [(ages[i], addrs[i] if rng is None else rng.random()) for i in range(n)]
    keep = sorted(range(n), key=lambda i: keys[i])[: view.max_size]
    return [addrs[i] for i in keep], [ids[i] for i in keep], [ages[i] for i in keep]


@st.composite
def trim_cases(draw):
    """Views just under, at and just over their bound, often with every
    age equal; ``seed`` None is the address tie-break."""
    max_size = draw(st.integers(min_value=1, max_value=12))
    n = max(0, max_size + draw(st.sampled_from([-2, 0, 1, 1, 2, 8])))
    addrs = draw(st.lists(st.integers(min_value=0, max_value=200),
                          min_size=n, max_size=n, unique=True))
    if draw(st.booleans()):
        ages = [draw(st.integers(min_value=0, max_value=3))] * n
    else:
        ages = draw(st.lists(st.integers(min_value=0, max_value=3), min_size=n, max_size=n))
    seed = draw(st.none() | st.integers(min_value=0, max_value=2**32))
    return max_size, addrs, ages, seed


class TestTrimEqualsNaive:
    """Mutation-checked: tie-breakers drawn after the age sort, the age
    sort done first, and an unstable second sort each fail this test."""

    @settings(max_examples=300)
    @given(trim_cases())
    def test_trim_equals_one_sort_on_tuple_keys(self, case):
        max_size, addrs, ages, seed = case
        v = PartialView(max_size, [Descriptor(a, a * 7, g) for a, g in zip(addrs, ages)])
        rng, twin = (None, None) if seed is None else (random.Random(seed), random.Random(seed))
        expected = naive_trim(v, twin)
        v.trim(rng)
        assert v.snapshot_fields() == expected
        assert v._slot == {a: j for j, a in enumerate(expected[0])}
        if seed is not None:
            assert rng.getstate() == twin.getstate()


class TestSampling:
    @given(descriptor_lists, st.integers(min_value=0, max_value=20), st.integers())
    @settings(max_examples=60)
    def test_sample_is_unique_subset(self, descs, n, seed):
        v = PartialView(100, descs)
        s = v.sample(n, random.Random(seed))
        assert len(s) == min(n, len(v))
        addrs = [d.address for d in s]
        assert len(addrs) == len(set(addrs))
        assert all(a in v for a in addrs)

    @given(descriptor_lists)
    def test_oldest_is_max_age(self, descs):
        v = PartialView(100, descs)
        oldest = v.oldest_descriptor()
        if oldest is None:
            assert len(v) == 0
        else:
            assert oldest.age == max(d.age for d in v)
