"""Tests for greedy routing."""

import math
import random

from repro.core.identifiers import IdSpace
from repro.smallworld.routing import greedy_route, ring_of_links


def make_ring_overlay(n, space, extra_links=0, seed=1):
    """A correct ring (each node links to succ and pred) plus optional
    random long links.  Returns (ids, neighbors)."""
    rng = random.Random(seed)
    ids = {a: space.hash_key(("n", a)) for a in range(n)}
    order = sorted(ids, key=lambda a: ids[a])
    neighbors = {a: set() for a in ids}
    for i, a in enumerate(order):
        succ = order[(i + 1) % n]
        pred = order[(i - 1) % n]
        neighbors[a].update({succ, pred})
    for a in ids:
        for _ in range(extra_links):
            b = rng.randrange(n)
            if b != a:
                neighbors[a].add(b)
    return ids, neighbors


def route(space, ids, neighbors, start, target_id, alive=lambda a: True, max_hops=256):
    return greedy_route(
        space,
        target_id,
        start,
        ids[start],
        ring_of=lambda a: ring_of_links((b, ids[b]) for b in neighbors[a]),
        is_alive=alive,
        max_hops=max_hops,
    )


class TestGreedyRouting:
    def test_reaches_global_rendezvous_on_ring(self):
        space = IdSpace(bits=32)
        ids, neighbors = make_ring_overlay(40, space)
        target = space.hash_key("some-topic")
        truth = min(ids, key=lambda a: (space.distance(ids[a], target), a))
        result = route(space, ids, neighbors, start=0, target_id=target)
        assert result.success
        assert result.rendezvous == truth

    def test_all_starts_agree_on_rendezvous(self):
        """Lookup consistency: every node's lookup ends at the same node."""
        space = IdSpace(bits=32)
        ids, neighbors = make_ring_overlay(30, space, extra_links=2)
        target = space.hash_key("topic-7")
        ends = {route(space, ids, neighbors, s, target).rendezvous for s in ids}
        assert len(ends) == 1

    def test_exact_id_match_terminates(self):
        space = IdSpace(bits=32)
        ids, neighbors = make_ring_overlay(10, space)
        some = next(iter(ids))
        result = route(space, ids, neighbors, some, ids[some])
        assert result.success and result.path == [some] and result.hops == 0

    def test_long_links_shorten_paths(self):
        space = IdSpace(bits=32)
        n = 200
        ids, ring_only = make_ring_overlay(n, space, extra_links=0)
        _, with_links = make_ring_overlay(n, space, extra_links=3)
        target = space.hash_key("t")
        hops_ring = route(space, ids, ring_only, 0, target).hops
        hops_sw = route(space, ids, with_links, 0, target).hops
        assert hops_sw <= hops_ring

    def test_path_has_no_repeats(self):
        space = IdSpace(bits=32)
        ids, neighbors = make_ring_overlay(50, space, extra_links=2)
        result = route(space, ids, neighbors, 3, space.hash_key("x"))
        assert len(result.path) == len(set(result.path))

    def test_dead_start_fails(self):
        space = IdSpace(bits=32)
        ids, neighbors = make_ring_overlay(10, space)
        result = route(space, ids, neighbors, 0, 123, alive=lambda a: False)
        assert not result.success and result.path == []

    def test_dead_neighbors_are_skipped(self):
        space = IdSpace(bits=32)
        ids, neighbors = make_ring_overlay(30, space, extra_links=3)
        dead = {5, 6, 7}
        result = route(
            space, ids, neighbors, 0, space.hash_key("y"), alive=lambda a: a not in dead
        )
        assert result.success
        assert not dead.intersection(result.path)

    def test_max_hops_bound(self):
        space = IdSpace(bits=32)
        ids, neighbors = make_ring_overlay(100, space)
        result = route(space, ids, neighbors, 0, space.hash_key("z"), max_hops=2)
        assert len(result.path) <= 3

    def test_hop_count_scales_logarithmically(self):
        """With k harmonic-ish links greedy routing is polylog; sanity-check
        the path length stays well under N/2 (ring-walk length)."""
        space = IdSpace(bits=32)
        n = 256
        ids, neighbors = make_ring_overlay(n, space, extra_links=4)
        total = 0
        for s in list(ids)[:20]:
            r = route(space, ids, neighbors, s, space.hash_key(("t", s)))
            assert r.success
            total += r.hops
        assert total / 20 < 4 * math.log2(n)
