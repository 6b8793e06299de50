"""The bounded Vitis routing table.

Each entry is a neighbor descriptor tagged with its *link kind*:

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

from repro.gossip.view import Descriptor
from repro.smallworld.routing import Ring, ring_of_links

__all__ = ["LinkKind", "RTEntry", "RoutingTable"]


class LinkKind(enum.Enum):
    """Why a neighbor is in the routing table."""

    PREDECESSOR = "predecessor"
    SUCCESSOR = "successor"
    SW = "sw"
    FRIEND = "friend"


class RTEntry:
    """One routing-table slot: descriptor + link kind + heartbeat age."""

    __slots__ = ("descriptor", "kind", "age")

    def __init__(self, descriptor: Descriptor, kind: LinkKind, age: int = 0) -> None:
        self.descriptor = descriptor
        self.kind = kind
        self.age = age

    @property
    def address(self) -> int:
        return self.descriptor.address

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"RTEntry({self.descriptor!r}, {self.kind.value}, age={self.age})"


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
            cached = [
                (e.descriptor.address, e.descriptor.node_id)
                for e in self._entries.values()
            ]
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
    def replace(self, selection: List[Tuple[Descriptor, LinkKind]]) -> None:
        """Install a fresh selection (the output of Alg. 4).

        Ages of retained neighbors are preserved so that staleness
        detection is not reset by reselection.  The selection is trusted
        to be what Alg. 4 emits — at most ``max_size`` entries, one per
        address, never the owner: this runs twice per T-Man exchange, and
        validating what the node's own selection pass is structurally
        incapable of violating was measurable there.
        """
        entries = self._entries
        new: Dict[int, RTEntry] = {}
        for desc, kind in selection:
            old = entries.get(desc.address)
            if old is None:
                new[desc.address] = RTEntry(desc, kind, desc.age)
            elif old.kind is kind:
                # Same neighbor, same role: refresh the descriptor in
                # place (age already preserved) instead of allocating.
                # Descriptors are value objects nothing mutates in place,
                # so the entry can hold the selected one directly.
                old.descriptor = desc
                new[desc.address] = old
            else:
                new[desc.address] = RTEntry(desc, kind, old.age)
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
