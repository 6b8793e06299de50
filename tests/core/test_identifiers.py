"""Tests for the circular id space."""

import pytest

from repro.core.identifiers import IdSpace


class TestConstruction:
    def test_default_is_64_bits(self):
        assert IdSpace().bits == 64

    def test_invalid_bits(self):
        with pytest.raises(ValueError):
            IdSpace(bits=4)
        with pytest.raises(ValueError):
            IdSpace(bits=200)


class TestHashing:
    def test_deterministic(self):
        a, b = IdSpace(), IdSpace()
        assert a.hash_key("topic-1") == b.hash_key("topic-1")

    def test_in_range(self):
        s = IdSpace(bits=16)
        for k in range(200):
            assert 0 <= s.hash_key(k) < s.size

    def test_node_and_topic_namespaces_disjoint(self):
        s = IdSpace()
        assert s.node_id(5) != s.topic_id(5)

    def test_roughly_uniform(self):
        s = IdSpace(bits=32)
        ids = [s.hash_key(i) for i in range(2000)]
        # Mean should be near the middle of the space.
        mean = sum(ids) / len(ids)
        assert 0.4 * s.size < mean < 0.6 * s.size


class TestGeometry:
    space = IdSpace(bits=8)  # size 256

    def test_distance_symmetric(self):
        assert self.space.distance(10, 250) == self.space.distance(250, 10) == 16

    def test_distance_max_is_half(self):
        assert self.space.distance(0, 128) == 128

    def test_distance_zero(self):
        assert self.space.distance(7, 7) == 0
