"""Property-based tests for the circular id space."""

from hypothesis import given
from hypothesis import strategies as st

from repro.core.identifiers import IdSpace

SPACE = IdSpace(bits=32)
ids = st.integers(min_value=0, max_value=SPACE.size - 1)


class TestDistanceMetric:
    @given(ids, ids)
    def test_symmetry(self, a, b):
        assert SPACE.distance(a, b) == SPACE.distance(b, a)

    @given(ids)
    def test_identity(self, a):
        assert SPACE.distance(a, a) == 0

    @given(ids, ids)
    def test_bounded_by_half(self, a, b):
        assert 0 <= SPACE.distance(a, b) <= SPACE.size // 2

    @given(ids, ids, ids)
    def test_triangle_inequality(self, a, b, c):
        assert SPACE.distance(a, c) <= SPACE.distance(a, b) + SPACE.distance(b, c)

    @given(ids, ids, ids)
    def test_translation_invariance(self, a, b, k):
        assert SPACE.distance(a, b) == SPACE.distance(
            (a + k) % SPACE.size, (b + k) % SPACE.size
        )


class TestClockwise:
    @given(ids, ids)
    def test_distance_is_min_of_arcs(self, a, b):
        cw = (b - a) % SPACE.size
        assert SPACE.distance(a, b) == min(cw, SPACE.size - cw)


class TestHashing:
    @given(st.text(max_size=40))
    def test_hash_in_range(self, key):
        assert 0 <= SPACE.hash_key(key) < SPACE.size

    @given(st.text(max_size=40))
    def test_hash_stable(self, key):
        assert SPACE.hash_key(key) == IdSpace(bits=32).hash_key(key)
