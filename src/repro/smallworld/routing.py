"""Greedy lookup over arbitrary routing tables.

This is the rendezvous-routing primitive (paper section III-B): a lookup
on ``hash(t)`` walks greedily toward the id, using *any* link kind — friend,
sw-neighbor or ring link — and terminates at the node circularly closest to
the target among everything it can see, the *rendezvous node*.  The visited
path is the *relay path*.

The router is expressed against two callables so the same code routes over
Vitis tables, RVR tables and ad-hoc test graphs:

- ``neighbors_of(addr) -> iterable of (neighbor_addr, neighbor_id)``
- ``is_alive(addr) -> bool``
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Iterable, List, Optional, Tuple

from repro.core.identifiers import IdSpace

__all__ = ["LookupResult", "greedy_route"]


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
    neighbors_of: Callable[[int], Iterable[Tuple[int, int]]],
    is_alive: Callable[[int], bool],
    max_hops: int = 256,
    link_ok: Optional[Callable[[int, int], bool]] = None,
) -> LookupResult:
    """Walk greedily toward ``target_id``.

    At each node, move to the live neighbor whose id is strictly closer
    (circularly) to the target than the current node's id; stop when no
    neighbor improves — the current node is the rendezvous.  A visited set
    guards against the (theoretically impossible on a correct ring, but
    possible mid-convergence) case of non-improving cycles.

    ``link_ok(current, candidate)``, when given, is the route-around hook
    for fault injection: candidates are tried best-first and the first one
    whose link passes is taken; a candidate whose link fails is skipped
    (its hop is "lost").  If *every* improving candidate's link fails, the
    walk aborts with ``success=False`` so the caller can retry, excluding
    the links it just saw fail.  ``link_ok`` is consulted at most once per
    (current, candidate) step, so stochastic callables behave like one
    transmission attempt per candidate.
    """
    result = LookupResult(target_id=target_id)
    if not is_alive(start_addr):
        return result

    current_addr, current_id = start_addr, start_id
    visited = {start_addr}
    result.path.append(start_addr)
    # Ring distances to the (fixed) target are recomputed for every
    # neighbor at every hop — hoist the modulus out of the walk and
    # inline the arithmetic rather than paying a method call per edge.
    size = space.size
    half = size >> 1

    for _ in range(max_hops):
        current_d = (current_id - target_id) % size
        if current_d > half:
            current_d = size - current_d
        if current_d == 0:
            result.success = True
            return result
        # Candidates are tried best-first: the closest improving neighbor
        # whose link passes is taken; one whose link fails is set aside
        # for this hop only and the scan repeats for the next-closest.
        refused: List[int] = []
        while True:
            best_addr, best_id, best_d = None, None, current_d
            for naddr, nid in neighbors_of(current_addr):
                if naddr in visited or not is_alive(naddr):
                    continue
                d = (nid - target_id) % size
                if d > half:
                    d = size - d
                # Strict improvement required; ties broken by smaller address
                # so concurrent lookups from different sources converge to the
                # same rendezvous node (lookup consistency).
                if d < best_d or (d == best_d and best_addr is not None and naddr < best_addr):
                    best_addr, best_id, best_d = naddr, nid, d
            if best_addr is None or link_ok is None or link_ok(current_addr, best_addr):
                break
            visited.add(best_addr)
            refused.append(best_addr)
        if refused:
            visited.difference_update(refused)
        if best_addr is None:
            # Local minimum: current node is the closest it can see —
            # unless every usable next hop was eaten by the fault model;
            # then abort so the caller can retry, routing around these
            # links.
            result.success = not refused
            return result
        current_addr, current_id = best_addr, best_id
        visited.add(current_addr)
        result.path.append(current_addr)

    # Ran out of hops — treat as failure so callers can retry next cycle.
    return result
