"""Symphony's harmonic long links.

``VitisNode._select_from_pool`` draws its small-world targets inline;
``tests/property/test_select_neighbors.py`` proves it makes exactly the
draw of :func:`harmonic_fraction`.  This file checks that draw has
Symphony's shape, and pins the pick around a known target by example.
"""

import math
import random

import numpy as np

from repro.core.config import VitisConfig
from repro.core.identifiers import IdSpace
from repro.core.node import VitisNode
from repro.core.routing_table import LinkKind
from repro.core.utility import UtilityFunction
from tests.property.test_select_neighbors import harmonic_fraction


class TestHarmonicFraction:
    def test_range(self, rng):
        n = 1000
        for _ in range(500):
            x = harmonic_fraction(rng, n)
            assert 1 / n <= x <= 1.0

    def test_distribution_shape(self):
        """The harmonic pdf p(x)=1/(x ln n) puts equal mass in each
        logarithmic decade: check the log of the draws is ~uniform."""
        rng = random.Random(7)
        n = 2**16
        draws = [harmonic_fraction(rng, n) for _ in range(4000)]
        logs = np.log(draws) / math.log(n) + 1.0  # maps to [0, 1]
        hist, _ = np.histogram(logs, bins=4, range=(0, 1))
        # Each quarter should hold roughly 1000 draws.
        assert all(800 < h < 1200 for h in hist)

    def test_small_n_clamped(self, rng):
        # A node starts at n = 2, never below (log(1) == 0 flattens the
        # pdf); the cycle driver raises it to the live population.
        node = VitisNode(0, 0, (), VitisConfig(), IdSpace(16), UtilityFunction(), rng)
        assert node.n_estimate == 2
        assert 0.5 <= harmonic_fraction(rng, node.n_estimate) <= 1.0

    def test_deterministic_given_rng(self):
        a = harmonic_fraction(random.Random(3), 100)
        b = harmonic_fraction(random.Random(3), 100)
        assert a == b


class _Draw:
    """An RNG whose every draw is *u*."""

    def __init__(self, u):
        self.u = u

    def random(self):
        return self.u


def sw_pick(cands, u, n_estimate):
    """The address the one small-world slot of node id 0 (256 ids) picks
    out of ``(address, id)`` candidates when the harmonic draw reads *u*.
    Ids 1 and 255 are in the pool to fill the two ring slots first."""
    node = VitisNode(0, 0, (), VitisConfig(rt_size=3, n_sw_links=1),
                     IdSpace(8), UtilityFunction(), _Draw(u))
    node.n_estimate = n_estimate
    pool = {a: (a, i, 0) for a, i in [(1, 1), (2, 255)] + cands}
    picks = {kind: a for a, _, _, kind in node._select_from_pool(pool, lambda a: None)}
    return picks.get(LinkKind.SW)


class TestDrawTarget:
    def test_target_is_clockwise_offset(self):
        # 256 / 2**20 ids floors to 0; the offset is floored at 1, so the
        # target is id 1 (a tie, lower address wins), never my own id 0.
        assert sw_pick([(4, 0), (3, 2)], u=0.0, n_estimate=2**20) == 3


class TestClosestToTarget:
    def test_picks_minimal_circular_distance(self):
        # Target id 1: id 250 is 7 away across the wrap, id 10 is 9 away.
        assert sw_pick([(3, 10), (4, 250)], u=0.0, n_estimate=256) == 4

    def test_empty(self):
        assert sw_pick([], u=0.0, n_estimate=2) is None

    def test_tie_broken_by_address(self):
        # Target id 128 (n = 2, u = 0: half the ring): both are 8 away.
        assert sw_pick([(9, 120), (6, 136)], u=0.0, n_estimate=2) == 6
