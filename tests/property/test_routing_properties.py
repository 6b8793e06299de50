"""Property-based tests for greedy routing and the ring."""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.identifiers import IdSpace
from repro.core.routing_table import LinkKind, RoutingTable
from repro.gossip.view import Descriptor
from repro.smallworld.ring import ring_edges
from repro.smallworld.routing import LookupResult, closer_first, greedy_route, ring_of_links
from tests.smallworld.test_ring import ring_picks

SPACE = IdSpace(bits=32)

populations = st.lists(
    st.integers(min_value=0, max_value=10_000), min_size=2, max_size=60, unique=True
)


def overlay(addresses, extra_links=2, seed=0):
    """A correct ring plus random long links over hashed ids."""
    rng = random.Random(seed)
    ids = {a: SPACE.hash_key(("n", a)) for a in addresses}
    order = sorted(ids, key=lambda a: ids[a])
    n = len(order)
    neighbors = {a: set() for a in ids}
    for i, a in enumerate(order):
        neighbors[a].update({order[(i + 1) % n], order[(i - 1) % n]})
    addr_list = list(addresses)
    for a in ids:
        for _ in range(extra_links):
            b = rng.choice(addr_list)
            if b != a:
                neighbors[a].add(b)
    return ids, neighbors


class TestGreedyRouting:
    @given(populations, st.integers(min_value=0, max_value=SPACE.size - 1))
    @settings(max_examples=60, deadline=None)
    def test_terminates_at_global_minimum(self, addrs, target):
        ids, neighbors = overlay(addrs)
        start = addrs[0]
        result = greedy_route(
            SPACE,
            target,
            start,
            ids[start],
            ring_of=lambda a: ring_of_links((b, ids[b]) for b in neighbors[a]),
            is_alive=lambda a: True,
        )
        assert result.success
        truth = min(ids.values(), key=lambda i: SPACE.distance(i, target))
        assert ids[result.rendezvous] == truth

    @given(populations, st.integers(min_value=0, max_value=SPACE.size - 1))
    @settings(max_examples=40, deadline=None)
    def test_lookup_consistency(self, addrs, target):
        """Any two starting points reach the same rendezvous."""
        ids, neighbors = overlay(addrs)
        ends = set()
        for start in addrs[:4]:
            r = greedy_route(
                SPACE,
                target,
                start,
                ids[start],
                ring_of=lambda a: ring_of_links((b, ids[b]) for b in neighbors[a]),
                is_alive=lambda a: True,
            )
            ends.add(r.rendezvous)
        assert len(ends) == 1

    @given(populations, st.integers(min_value=0, max_value=SPACE.size - 1))
    @settings(max_examples=40, deadline=None)
    def test_distances_strictly_decrease(self, addrs, target):
        ids, neighbors = overlay(addrs)
        start = addrs[0]
        r = greedy_route(
            SPACE,
            target,
            start,
            ids[start],
            ring_of=lambda a: ring_of_links((b, ids[b]) for b in neighbors[a]),
            is_alive=lambda a: True,
        )
        dists = [SPACE.distance(ids[a], target) for a in r.path]
        assert all(x > y for x, y in zip(dists, dists[1:]))


# ----------------------------------------------------------------------
# Differential: the bisected step against the scan it replaced
# ----------------------------------------------------------------------
def scan_route(space, target_id, start, ids, links_of, is_alive, max_hops, link_ok):
    """The walk as a full scan per hop, transcribed from the
    implementation ``closer_first`` replaced: every link, liveness per
    link, strict improvement on the current node, equal distance → lower
    address, best-first rescan after a refused link."""
    result = LookupResult(target_id=target_id)
    if not is_alive(start):
        return result
    current, visited = start, {start}
    result.path.append(start)
    for _ in range(max_hops):
        current_d = space.distance(ids[current], target_id)
        if current_d == 0:
            result.success = True
            return result
        refused = []
        while True:
            best, best_d = None, current_d
            for naddr, nid in links_of(current):
                if naddr in visited or not is_alive(naddr):
                    continue
                d = space.distance(nid, target_id)
                if d < best_d or (d == best_d and best is not None and naddr < best):
                    best, best_d = naddr, d
            if best is None or link_ok is None or link_ok(current, best):
                break
            visited.add(best)
            refused.append(best)
        visited.difference_update(refused)
        if best is None:
            result.success = not refused
            return result
        current = best
        visited.add(current)
        result.path.append(current)
    return result


@st.composite
def small_overlays(draw):
    """Random tables over an id space small enough that equal distances,
    duplicate ids, a target sitting on an id, empty tables and a dead
    start all occur: 4 to 8 bits' worth of ids, spread over the smallest
    space ``IdSpace`` accepts."""
    space = IdSpace(bits=8)
    stride = draw(st.sampled_from([1, 4, 16]))
    n = draw(st.integers(min_value=1, max_value=10))
    any_id = st.integers(min_value=0, max_value=space.size // stride - 1).map(stride.__mul__)
    ids = draw(st.lists(any_id, min_size=n, max_size=n))
    tables = {}
    for a in range(n):
        others = [b for b in range(n) if b != a]
        neigh = draw(st.lists(st.sampled_from(others), unique=True)) if others else []
        tables[a] = RoutingTable(a, n)
        tables[a].replace([(Descriptor(b, ids[b]), LinkKind.FRIEND) for b in neigh])
    addr = st.integers(min_value=0, max_value=n - 1)
    target = draw(st.one_of(any_id, st.sampled_from(ids)))
    dead = draw(st.sets(addr, max_size=n))
    # ``link_ok`` as a fixed set of refused directed links; None = ungated.
    refused = draw(st.none() | st.sets(st.tuples(addr, addr), max_size=3 * n))
    max_hops = draw(st.sampled_from([1, 2, 256]))
    return space, ids, tables, draw(addr), target, dead, refused, max_hops


class TestGreedyStepDifferential:
    @given(small_overlays())
    @settings(max_examples=400, deadline=None)
    def test_walk_equals_the_scan(self, overlay):
        """Same path, same verdict and — so a stochastic gate consumes the
        same draws — the same ``link_ok`` calls in the same order."""
        space, ids, tables, start, target, dead, refused, max_hops = overlay
        calls = {"walk": [], "scan": []}

        def gate(side):
            if refused is None:
                return None

            def link_ok(u, v):
                calls[side].append((u, v))
                return (u, v) not in refused

            return link_ok

        walk = greedy_route(
            space, target, start, ids[start],
            ring_of=lambda a: tables[a].ring(),
            is_alive=lambda a: a not in dead,
            max_hops=max_hops, link_ok=gate("walk"),
        )
        scan = scan_route(
            space, target, start, ids, lambda a: tables[a].links(),
            lambda a: a not in dead, max_hops, gate("scan"),
        )
        assert (walk.path, walk.success) == (scan.path, scan.success)
        assert calls["walk"] == calls["scan"]

    @given(small_overlays())
    @settings(max_examples=200, deadline=None)
    def test_step_order(self, overlay):
        """``closer_first`` is the strictly-closer neighbors sorted by
        (circular distance, address)."""
        space, ids, tables, start, target, _dead, _refused, _max_hops = overlay
        own_d = space.distance(ids[start], target)
        expected = sorted(
            (space.distance(nid, target), addr, nid)
            for addr, nid in tables[start].links()
            if space.distance(nid, target) < own_d
        )
        got = list(closer_first(tables[start].ring(), space, target, ids[start]))
        assert got == [(addr, nid) for _, addr, nid in expected]


table_ops = st.lists(
    st.one_of(
        # replace: an address may come back under a new id or kind, or as
        # an in-place descriptor refresh (same address, same kind).
        st.tuples(
            st.just("replace"),
            st.lists(
                st.tuples(
                    st.integers(0, 7), st.integers(0, 15),
                    st.sampled_from([LinkKind.FRIEND, LinkKind.SW]),
                ),
                max_size=6, unique_by=lambda t: t[0],
            ),
        ),
        st.tuples(st.just("remove"), st.integers(0, 7)),
        st.tuples(st.just("age"), st.sets(st.integers(0, 7))),
        st.tuples(st.just("heartbeat"), st.integers(0, 7)),
    ),
    max_size=12,
)


class TestRingCache:
    @given(table_ops)
    @settings(max_examples=200, deadline=None)
    def test_ring_is_a_fresh_sort_after_any_write(self, ops):
        rt = RoutingTable(99, 8)
        for op, arg in ops:
            if op == "replace":
                rt.replace([(Descriptor(a, i), kind) for a, i, kind in arg])
            elif op == "remove":
                rt.remove(arg)
            elif op == "age":
                rt.age_and_evict(lambda a: a not in arg, threshold=0)
            else:
                rt.heartbeat(arg)
            pairs = sorted((e.descriptor.node_id, e.address) for e in rt)
            assert rt.ring() == ([i for i, _ in pairs], [a for _, a in pairs])
            assert rt.ring() is rt.ring()


class TestRingHelpers:
    @given(populations)
    @settings(max_examples=60)
    def test_ring_edges_form_one_cycle(self, addrs):
        ids = {a: SPACE.hash_key(("n", a)) for a in addrs}
        edges = dict(ring_edges(ids))
        # Follow successors: must visit every node exactly once.
        start = addrs[0]
        seen = [start]
        cur = edges[start]
        while cur != start:
            seen.append(cur)
            cur = edges[cur]
        assert sorted(seen) == sorted(addrs)

    @given(populations)
    @settings(max_examples=60)
    def test_successor_matches_ring_truth(self, addrs):
        ids = {a: SPACE.hash_key(("n", a)) for a in addrs}
        truth = dict(ring_edges(ids))
        for a in addrs:
            cands = [(b, ids[b]) for b in addrs if b != a]
            assert ring_picks(SPACE, ids[a], cands, address=a)[0] == truth[a]

    @given(populations)
    @settings(max_examples=60)
    def test_predecessor_inverts_successor(self, addrs):
        ids = {a: SPACE.hash_key(("n", a)) for a in addrs}
        truth = dict(ring_edges(ids))
        inverse = {v: k for k, v in truth.items()}
        if len(addrs) == 2:  # the successor took the one candidate there is
            inverse = dict.fromkeys(addrs)
        for a in addrs:
            cands = [(b, ids[b]) for b in addrs if b != a]
            assert ring_picks(SPACE, ids[a], cands, address=a)[1] == inverse[a]
