"""The bounded Vitis routing table.

Each entry is a neighbor's address and id tagged with its *link kind*:

- ``PREDECESSOR`` / ``SUCCESSOR`` — the two ring links that give lookup
  consistency;
- ``SW`` — Symphony-style long links that give navigability;
- ``FRIEND`` — similarity links chosen by the Eq. 1 utility, which form
  the per-topic clusters.

Entries carry a heartbeat age: reset when the neighbor's profile message
arrives (the neighbor is alive), incremented otherwise; entries older than
the staleness threshold are evicted (paper Alg. 6/7 and section III-D).
"""

from __future__ import annotations

import enum
from typing import Dict, Iterator, List, Optional, Tuple

from repro.smallworld.routing import Ring, ring_of_links

__all__ = ["LinkKind", "RTEntry", "RoutingTable"]


class LinkKind(enum.Enum):
    """Why a neighbor is in the routing table."""

    PREDECESSOR = "predecessor"
    SUCCESSOR = "successor"
    SW = "sw"
    FRIEND = "friend"


class RTEntry:
    """One routing-table slot: neighbor address and id, link kind,
    heartbeat age."""

    __slots__ = ("address", "node_id", "kind", "age")

    def __init__(self, address: int, node_id: int, kind: LinkKind, age: int = 0) -> None:
        self.address = address
        self.node_id = node_id
        self.kind = kind
        self.age = age

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"RTEntry({self.address}, {self.node_id}, {self.kind.value}, age={self.age})"


class RoutingTable:
    """Bounded map address → :class:`RTEntry`.

    The table never contains the owner and holds at most one entry per
    address; when a selection assigns several kinds to the same neighbor
    (e.g. the successor is also the best friend), the structural kind wins
    and the freed slot goes to the next candidate — handled by the
    selection logic in :mod:`repro.core.node`, not here.
    """

    __slots__ = ("owner", "max_size", "_entries", "_links", "_ring")

    def __init__(self, owner: int, max_size: int) -> None:
        if max_size < 1:
            raise ValueError("routing table size must be >= 1")
        self.owner = owner
        self.max_size = max_size
        self._entries: Dict[int, RTEntry] = {}
        #: Memoised links() result; dropped whenever membership changes
        #: (replace / remove / eviction).  Heartbeats only touch entry
        #: ages, which links() does not expose, so they keep the cache.
        self._links: Optional[List[Tuple[int, int]]] = None
        #: Memoised ring() result, dropped wherever ``_links`` is.
        self._ring: Optional[Ring] = None

    # ------------------------------------------------------------------
    # Container protocol
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, address: int) -> bool:
        return address in self._entries

    def __iter__(self) -> Iterator[RTEntry]:
        return iter(self._entries.values())

    @property
    def addresses(self) -> List[int]:
        return list(self._entries)

    def by_address(self) -> Dict[int, RTEntry]:
        """The table's own address → entry map, in table order; treat it
        as read-only."""
        return self._entries

    def links(self) -> List[Tuple[int, int]]:
        """(address, node_id) pairs — the shape greedy routing consumes.

        The list is cached between membership changes and shared across
        calls; treat it as read-only.  Greedy lookups call this once per
        hop, so rebuilding it each time dominated routing cost.
        """
        cached = self._links
        if cached is None:
            cached = [(e.address, e.node_id) for e in self._entries.values()]
            self._links = cached
        return cached

    def ring(self) -> Ring:
        """The neighbors in ascending id order — the shape the greedy
        step bisects (:func:`repro.smallworld.routing.closer_first`).
        Cached and shared like :meth:`links`; treat it as read-only.
        """
        cached = self._ring
        if cached is None:
            cached = self._ring = ring_of_links(self.links())
        return cached

    def successor(self) -> Optional[RTEntry]:
        for e in self._entries.values():
            if e.kind is LinkKind.SUCCESSOR:
                return e
        return None

    # ------------------------------------------------------------------
    # Mutation
    # ------------------------------------------------------------------
    def replace(self, selection: List[Tuple[int, int, int, LinkKind]]) -> None:
        """Install a fresh selection: Alg. 4's ``(address, node_id, age,
        kind)`` tuples.

        Ages of retained neighbors are preserved so that staleness
        detection is not reset by reselection.  The selection is trusted
        to be what Alg. 4 emits — at most ``max_size`` entries, one per
        address, never the owner: this runs twice per T-Man exchange, and
        validating what the node's own selection pass is structurally
        incapable of violating was measurable there.
        """
        entries = self._entries
        new: Dict[int, RTEntry] = {}
        for address, node_id, age, kind in selection:
            old = entries.get(address)
            if old is None:
                new[address] = RTEntry(address, node_id, kind, age)
            elif old.kind is kind:
                # Same neighbor, same role: the entry is reused as it
                # is (an address carries one id; the age is preserved).
                new[address] = old
            else:
                new[address] = RTEntry(address, node_id, kind, old.age)
        self._entries = new
        self._links = self._ring = None

    def remove(self, address: int) -> bool:
        if self._entries.pop(address, None) is not None:
            self._links = self._ring = None
            return True
        return False

    def heartbeat(self, address: int) -> None:
        """Record a profile message from ``address`` (age back to 0)."""
        e = self._entries.get(address)
        if e is not None:
            e.age = 0

    def age_and_evict(self, is_alive, threshold: int) -> List[int]:
        """One heartbeat round: neighbors that answered get age 0, silent
        ones age by 1; entries over ``threshold`` are evicted.

        ``is_alive(address)`` stands in for "a profile message came back
        this period".  Returns the evicted addresses.
        """
        evicted = []
        for addr, e in self._entries.items():
            if is_alive(addr):
                e.age = 0
            else:
                e.age += 1
                if e.age > threshold:
                    evicted.append(addr)
        for addr in evicted:
            del self._entries[addr]
        if evicted:
            self._links = self._ring = None
        return evicted
