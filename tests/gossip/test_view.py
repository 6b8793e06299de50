"""Tests for descriptors and partial views."""

import pytest

from repro.gossip.view import Descriptor, PartialView


def d(addr, age=0):
    return Descriptor(addr, addr * 1000, age)


class TestDescriptor:
    def test_equality_ignores_age(self):
        assert Descriptor(1, 5, age=0) == Descriptor(1, 5, age=9)

    def test_hashable(self):
        assert len({Descriptor(1, 5, 0), Descriptor(1, 5, 3)}) == 1


class TestPartialViewBasics:
    def test_size_bound_validated(self):
        with pytest.raises(ValueError):
            PartialView(0)

    def test_insert_and_lookup(self):
        v = PartialView(5)
        v.insert(d(1))
        assert 1 in v
        assert v.get(1).node_id == 1000
        assert len(v) == 1

    def test_freshest_wins(self):
        v = PartialView(5)
        v.insert(d(1, age=5))
        v.insert(d(1, age=2))
        assert v.get(1).age == 2
        v.insert(d(1, age=9))  # staler: ignored
        assert v.get(1).age == 2

    def test_merge_excludes_self(self):
        v = PartialView(5)
        v.merge([d(1), d(2)], exclude=1)
        assert 1 not in v and 2 in v

    def test_remove(self):
        v = PartialView(5, [d(1)])
        assert v.remove(1) is True
        assert v.remove(1) is False

    def test_addresses_and_descriptors(self):
        v = PartialView(5, [d(1), d(2)])
        assert sorted(e.address for e in v) == [1, 2]
        assert len(list(v)) == 2


class TestAging:
    def test_age_all(self):
        v = PartialView(5, [d(1, 0), d(2, 3)])
        v.age_all()
        assert v.get(1).age == 1 and v.get(2).age == 4

    def test_drop_older_than(self):
        v = PartialView(5, [d(1, 1), d(2, 5)])
        assert v.drop_older_than(3) == 1
        assert 2 not in v

    def test_trim_keeps_freshest(self):
        v = PartialView(2)
        for i, age in [(1, 3), (2, 0), (3, 1)]:
            v.insert(d(i, age))
        v.trim()
        assert sorted(e.address for e in v) == [2, 3]

    def test_trim_ties_broken_by_address(self):
        v = PartialView(1)
        v.insert(d(5, 0))
        v.insert(d(2, 0))
        v.trim()
        assert [e.address for e in v] == [2]

    def test_trim_noop_when_small(self):
        v = PartialView(5, [d(1)])
        v.trim()
        assert len(v) == 1


class TestNoAliasing:
    """Views must never share mutable state — neither with each other nor
    with descriptors handed in or out (regression for the descriptor
    aliasing bug: two views built from one Descriptor list used to age
    together)."""

    def test_two_views_sharing_descriptors_age_independently(self):
        shared = [d(1, 2), d(2, 0)]
        a = PartialView(5, shared)
        b = PartialView(5, shared)
        a.age_all()
        assert a.get(1).age == 3 and a.get(2).age == 1
        assert b.get(1).age == 2 and b.get(2).age == 0

    def test_inserted_descriptor_not_retained(self):
        desc = d(1, age=0)
        v = PartialView(5, [desc])
        desc.age = 99
        assert v.get(1).age == 0

    def test_returned_descriptors_are_snapshots(self):
        v = PartialView(5, [d(1, 2)])
        for got in (v.get(1), next(iter(v))):
            got.age = 77
        assert v.get(1).age == 2


class TestSampling:
    def test_random_descriptor_empty(self, rng):
        assert PartialView(3).random_descriptor(rng) is None

    def test_random_descriptor_member(self, rng):
        v = PartialView(3, [d(1), d(2)])
        assert v.random_descriptor(rng).address in (1, 2)

    def test_oldest(self):
        v = PartialView(3, [d(1, 2), d(2, 7)])
        assert v.oldest_descriptor().address == 2

    def test_oldest_empty(self):
        assert PartialView(3).oldest_descriptor() is None

    def test_sample_bounded(self, rng):
        v = PartialView(10, [d(i) for i in range(8)])
        s = v.sample(3, rng)
        assert len(s) == 3
        assert len({x.address for x in s}) == 3

    def test_sample_returns_all_when_small(self, rng):
        v = PartialView(10, [d(1), d(2)])
        assert len(v.sample(5, rng)) == 2
