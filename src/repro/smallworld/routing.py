"""Greedy lookup over arbitrary routing tables.

This is the rendezvous-routing primitive (paper section III-B): a lookup
on ``hash(t)`` walks greedily toward the id, using *any* link kind — friend,
sw-neighbor or ring link — and terminates at the node circularly closest to
the target among everything it can see, the *rendezvous node*.  The visited
path is the *relay path*.

The greedy step is written once, in :func:`closer_first`: a node's
neighbors strictly closer to the target than the node itself, in ascending
circular distance, equal distance → lower address.  It reads a *ring* —
the neighbors as ``(ids, addresses)``, two parallel lists in ascending
``(id, address)`` order (:func:`ring_of_links`; a routing table caches its
own) — so the nearest neighbor is a bisection away instead of a scan.
:func:`greedy_route` walks it over two callables, so the same code routes
over Vitis tables, RVR tables and ad-hoc test graphs:

- ``ring_of(addr) -> (ids, addresses)`` of ``addr``'s neighbors
- ``is_alive(addr) -> bool``
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass, field
from typing import Callable, Iterable, Iterator, List, Optional, Sequence, Tuple

from repro.core.identifiers import IdSpace

__all__ = ["LookupResult", "Ring", "closer_first", "greedy_route", "ring_of_links"]

#: A node's neighbors as parallel ``(ids, addresses)`` lists, ascending by
#: ``(id, address)``.
Ring = Tuple[Sequence[int], Sequence[int]]


def ring_of_links(links: Iterable[Tuple[int, int]]) -> Ring:
    """The :data:`Ring` of ``(address, node_id)`` pairs."""
    pairs = sorted((nid, addr) for addr, nid in links)
    return [nid for nid, _ in pairs], [addr for _, addr in pairs]


def closer_first(ring: Ring, space: IdSpace, target_id: int, from_id: int) -> Iterator[Tuple[int, int]]:
    """The greedy step: ``(address, node_id)`` of every neighbor on
    ``ring`` strictly closer (circularly, in ``space``) to ``target_id``
    than ``from_id`` is, nearest first, equal distance → lower address —
    so concurrent lookups from different sources converge to the same
    rendezvous (lookup consistency).

    Two fronts leave the target's position on the ring, one clockwise and
    one counter-clockwise, and the nearer one surfaces next; each stops at
    the caller's own distance, which is at most half the circle, so no
    neighbor is reached from both sides.  ``target_id`` lies in
    ``[0, space.size)``.
    """
    ids, addrs = ring
    size = space.size
    bound = space.distance(from_id, target_id)
    # Both fronts index [bot, top): the clockwise one climbs from bot, the
    # counter-clockwise one descends from top - 1, negative indices
    # wrapping around the sorted list.  A spent front reads ``size``.
    top = bisect_left(ids, target_id)
    bot = top - len(ids)
    lo, hi = bot, top - 1
    a = (ids[lo] - target_id) % size if lo < top else size
    b = size - (ids[hi] - target_id) % size if hi >= bot else size
    while True:
        d = a if a < b else b
        if d >= bound:
            return
        # Everything at distance d: more than one only for ids mirrored
        # around the target or duplicated (small id spaces).
        tied = []
        while a == d:
            tied.append(lo)
            lo += 1
            a = (ids[lo] - target_id) % size if lo < top else size
        while b == d:
            tied.append(hi)
            hi -= 1
            b = size - (ids[hi] - target_id) % size if hi >= bot else size
        if len(tied) > 1:
            tied.sort(key=addrs.__getitem__)
        for k in tied:
            yield addrs[k], ids[k]


@dataclass
class LookupResult:
    """Outcome of a greedy lookup.

    Attributes
    ----------
    path:
        Visited addresses, starting node first, rendezvous last.
    success:
        True if the walk terminated at a local minimum (the rendezvous);
        False if it hit ``max_hops`` or a dead end with no live neighbors.
    """

    target_id: int
    path: List[int] = field(default_factory=list)
    success: bool = False

    @property
    def rendezvous(self) -> int:
        """The final node of the walk (valid when ``success``)."""
        return self.path[-1]

    @property
    def hops(self) -> int:
        return max(0, len(self.path) - 1)


def greedy_route(
    space: IdSpace,
    target_id: int,
    start_addr: int,
    start_id: int,
    ring_of: Callable[[int], Ring],
    is_alive: Callable[[int], bool],
    max_hops: int = 256,
    link_ok: Optional[Callable[[int, int], bool]] = None,
) -> LookupResult:
    """Walk greedily toward ``target_id``.

    At each node, move to the first live neighbor :func:`closer_first`
    offers; stop when there is none — the current node is the rendezvous.
    No node can recur: the distance to the target strictly decreases
    along the path.

    ``link_ok(current, candidate)``, when given, is the route-around hook
    for fault injection: the first live candidate whose link passes is
    taken; one whose link fails is skipped (its hop is "lost").  If
    *every* improving candidate's link fails, the walk aborts with
    ``success=False`` so the caller can retry, excluding the links it just
    saw fail.  ``link_ok`` is consulted at most once per (current,
    candidate) step, so stochastic callables behave like one transmission
    attempt per candidate.
    """
    result = LookupResult(target_id=target_id)
    if not is_alive(start_addr):
        return result

    current_addr, current_id = start_addr, start_id
    result.path.append(start_addr)
    for _ in range(max_hops):
        refused = False
        for naddr, nid in closer_first(ring_of(current_addr), space, target_id, current_id):
            if is_alive(naddr):
                if link_ok is None or link_ok(current_addr, naddr):
                    break
                refused = True
        else:
            # Local minimum: current node is the closest it can see —
            # unless every usable next hop was eaten by the fault model;
            # then abort so the caller can retry, routing around these
            # links.
            result.success = not refused
            return result
        current_addr, current_id = naddr, nid
        result.path.append(naddr)

    # Ran out of hops — treat as failure so callers can retry next cycle.
    return result
