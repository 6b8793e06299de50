"""Tests for coordinate-based latency models."""

import random

import pytest

from repro.sim.latency import CoordinateLatency, CoordinateSpace


@pytest.fixture
def coords(rng):
    return CoordinateSpace.random(range(20), rng)


class TestCoordinateSpace:
    def test_random_in_unit_square(self, coords):
        for a in range(20):
            x, y = coords._coords[a]
            assert 0 <= x <= 1 and 0 <= y <= 1

    def test_distance_metric(self, coords):
        assert coords.distance(1, 1) == 0.0
        assert coords.distance(1, 2) == coords.distance(2, 1)
        assert coords.distance(1, 2) <= 2 ** 0.5

    def test_triangle_inequality(self, coords):
        for a, b, c in [(1, 2, 3), (4, 5, 6), (0, 10, 19)]:
            assert coords.distance(a, c) <= coords.distance(a, b) + coords.distance(b, c) + 1e-12

    def test_clustered_sites_are_tight(self, rng):
        cs = CoordinateSpace.clustered(range(100), rng, n_sites=3, spread=0.02)
        # Mean pairwise distance should be dominated by inter-site hops;
        # many pairs (same-site) are very close.
        dists = [cs.distance(a, b) for a in range(0, 100, 7) for b in range(1, 100, 13)]
        close = sum(1 for d in dists if d < 0.1)
        assert close > len(dists) * 0.15

    def test_clustered_validation(self, rng):
        with pytest.raises(ValueError):
            CoordinateSpace.clustered(range(5), rng, n_sites=0)

    def test_membership(self, coords):
        assert 5 in coords
        assert 99 not in coords
        assert len(coords) == 20


class TestCoordinateLatency:
    def test_delay_grows_with_distance(self, coords):
        lat = CoordinateLatency(coords, base=0.001, ms_per_unit=1.0)
        pairs = sorted(
            ((coords.distance(a, b), a, b) for a in range(10) for b in range(10, 20)),
        )
        _, a1, b1 = pairs[0]
        _, a2, b2 = pairs[-1]
        assert lat.delay(a1, b1) < lat.delay(a2, b2)

    def test_base_floor(self, coords):
        lat = CoordinateLatency(coords, base=0.5, ms_per_unit=0.0)
        assert lat.delay(1, 2) == 0.5

    def test_unknown_nodes_pay_base_only(self, coords):
        lat = CoordinateLatency(coords, base=0.25, ms_per_unit=1.0)
        assert lat.delay(1, 999) == 0.25

    def test_jitter_requires_rng(self, coords):
        with pytest.raises(ValueError):
            CoordinateLatency(coords, jitter=0.1)

    def test_jitter_bounded(self, coords):
        lat = CoordinateLatency(coords, base=0.0, ms_per_unit=0.0,
                                jitter=0.2, rng=random.Random(1))
        for _ in range(50):
            assert 0.0 <= lat.delay(1, 2) <= 0.2

    def test_cost_is_deterministic(self, coords):
        lat = CoordinateLatency(coords, base=0.01, ms_per_unit=0.5,
                                jitter=0.3, rng=random.Random(1))
        assert lat.cost(3, 7) == lat.cost(3, 7)
        assert lat.cost(3, 7) == pytest.approx(0.01 + 0.5 * coords.distance(3, 7))

    def test_negative_params_rejected(self, coords):
        with pytest.raises(ValueError):
            CoordinateLatency(coords, base=-1)
