"""Tests for the ring: Alg. 4's ring picks and the ground truth."""

import random

from repro.core.config import VitisConfig
from repro.core.identifiers import IdSpace
from repro.core.node import VitisNode
from repro.core.routing_table import LinkKind
from repro.core.utility import UtilityFunction
from repro.smallworld.ring import is_ring_converged, ring_edges

SPACE = IdSpace(bits=8)  # size 256 for readable tests


def ring_picks(space, self_id, cands, address=0):
    """(successor, predecessor) addresses Alg. 4 picks for a node with id
    *self_id* out of ``(address, node_id)`` candidates; None if unfilled."""
    node = VitisNode(address, self_id, (), VitisConfig(rt_size=3, n_sw_links=0),
                     space, UtilityFunction(), random.Random(0))
    pool = {a: (a, i, 0) for a, i in cands}
    picks = {kind: a for a, _, _, kind in node._select_from_pool(pool, lambda a: None)}
    return picks.get(LinkKind.SUCCESSOR), picks.get(LinkKind.PREDECESSOR)


class TestSuccessorPredecessor:
    def test_successor_is_min_clockwise(self):
        assert ring_picks(SPACE, 40, [(1, 50), (2, 200), (3, 10)])[0] == 1

    def test_successor_wraps(self):
        assert ring_picks(SPACE, 250, [(1, 10), (2, 30)])[0] == 1

    def test_predecessor_is_min_counterclockwise(self):
        assert ring_picks(SPACE, 40, [(1, 50), (2, 200), (3, 10)])[1] == 3

    def test_predecessor_wraps(self):
        assert ring_picks(SPACE, 50, [(1, 200), (2, 100)])[1] == 1

    def test_same_id_skipped(self):
        assert ring_picks(SPACE, 40, [(1, 40), (2, 60)]) == (2, None)
        assert ring_picks(SPACE, 40, [(1, 40)]) == (None, None)

    def test_empty_candidates(self):
        assert ring_picks(SPACE, 40, []) == (None, None)

    def test_tie_broken_by_address(self):
        assert ring_picks(SPACE, 40, [(5, 50), (2, 50)])[0] == 2


class TestRingEdges:
    def test_orders_by_id(self):
        ids = {10: 100, 11: 5, 12: 200}
        edges = ring_edges(ids)
        assert edges == [(11, 10), (10, 12), (12, 11)]

    def test_single_node(self):
        assert ring_edges({1: 5}) == [(1, 1)]


class TestConvergence:
    def test_converged_ring(self):
        ids = {0: 10, 1: 20, 2: 30}
        succ = {0: 1, 1: 2, 2: 0}
        assert is_ring_converged(ids, succ)

    def test_wrong_pointer_detected(self):
        ids = {0: 10, 1: 20, 2: 30}
        succ = {0: 2, 1: 2, 2: 0}
        assert not is_ring_converged(ids, succ)

    def test_missing_pointer_detected(self):
        ids = {0: 10, 1: 20, 2: 30}
        succ = {0: 1, 1: 2}
        assert not is_ring_converged(ids, succ)

    def test_trivial_populations(self):
        assert is_ring_converged({}, {})
        assert is_ring_converged({1: 5}, {})
