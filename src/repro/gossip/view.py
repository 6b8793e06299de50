"""Node descriptors and bounded partial views.

A :class:`Descriptor` is what gossip protocols trade: the address of a node,
its overlay id, and an *age* counting gossip rounds since the information
was fresh.  A :class:`PartialView` is a bounded collection of descriptors,
at most one per address, that prefers fresh information when merging — the
mechanism through which dead nodes eventually evaporate from the system.

Storage is *columnar*: a view keeps three parallel lists (addresses, ids,
ages) plus an address → slot index, not Descriptor objects.  The hot
per-cycle operations (age-all, merge, trim) then run as single passes over
plain int lists instead of method calls over heap objects, and — because
only scalars are stored — inserting a descriptor copies its fields by
construction.  Two views can therefore never alias mutable state through a
shared Descriptor: ``age_all`` on one is invisible to the other.  Accessors
(:meth:`PartialView.get`, iteration, :meth:`PartialView.sample`, …)
materialise fresh Descriptor objects on the way out, so callers own what
they receive and no longer need defensive copies.

Slot order mirrors dict insertion-order semantics exactly (new address
appends; updating a known address keeps its slot; removal is an ordered
delete), so iteration order — and with it every rng draw made over the
view — is identical to the previous dict-backed implementation.
"""

from __future__ import annotations

from typing import Dict, Iterable, Iterator, List, Optional

__all__ = ["Descriptor", "PartialView"]


class Descriptor:
    """A pointer to a node as known by some other node.

    Descriptors are immutable value objects except for ``age``, which is a
    freshness counter: 0 means "heard from it this round".
    """

    __slots__ = ("address", "node_id", "age")

    def __init__(self, address: int, node_id: int, age: int = 0) -> None:
        self.address = address
        self.node_id = node_id
        self.age = age

    def copy(self, age: Optional[int] = None) -> "Descriptor":
        """A fresh copy, optionally with a different age."""
        return Descriptor(self.address, self.node_id, self.age if age is None else age)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Descriptor)
            and other.address == self.address
            and other.node_id == self.node_id
        )

    def __hash__(self) -> int:
        return hash((self.address, self.node_id))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Descriptor(addr={self.address}, id={self.node_id:#x}, age={self.age})"


class PartialView:
    """A bounded set of descriptors, unique per address, freshest-wins.

    The view does not itself enforce its bound on every mutation — gossip
    protocols deliberately overfill a working buffer and then call
    :meth:`trim` (keep freshest) or apply their own selection.
    """

    __slots__ = ("max_size", "_addrs", "_ids", "_ages", "_slot")

    def __init__(self, max_size: int, entries: Iterable[Descriptor] = ()) -> None:
        if max_size < 1:
            raise ValueError("view size must be >= 1")
        self.max_size = max_size
        self._addrs: List[int] = []
        self._ids: List[int] = []
        self._ages: List[int] = []
        self._slot: Dict[int, int] = {}
        for d in entries:
            self.insert(d)

    # ------------------------------------------------------------------
    # Basic container protocol
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._addrs)

    def __iter__(self) -> Iterator[Descriptor]:
        addrs, ids, ages = self._addrs, self._ids, self._ages
        for i in range(len(addrs)):
            yield Descriptor(addrs[i], ids[i], ages[i])

    def __contains__(self, address: int) -> bool:
        return address in self._slot

    def get(self, address: int) -> Optional[Descriptor]:
        i = self._slot.get(address)
        if i is None:
            return None
        return Descriptor(address, self._ids[i], self._ages[i])

    @property
    def addresses(self) -> List[int]:
        return list(self._addrs)

    def descriptors(self) -> List[Descriptor]:
        """A snapshot list of the current entries (caller-owned objects)."""
        return list(self)

    # ------------------------------------------------------------------
    # Mutation
    # ------------------------------------------------------------------
    def insert(self, desc: Descriptor) -> None:
        """Insert a descriptor; if the address is known, keep the fresher
        (lower-age) information.  Fields are copied — the view never holds
        a reference to ``desc``."""
        addr = desc.address
        i = self._slot.get(addr)
        if i is None:
            self._slot[addr] = len(self._addrs)
            self._addrs.append(addr)
            self._ids.append(desc.node_id)
            self._ages.append(desc.age)
        elif desc.age < self._ages[i]:
            self._ids[i] = desc.node_id
            self._ages[i] = desc.age

    def merge(self, descriptors: Iterable[Descriptor], exclude: int = -1) -> None:
        """Insert many descriptors, skipping address ``exclude`` (a node
        never keeps a descriptor of itself).  The cold entry point —
        bootstrap and tests; exchanges merge columns (:meth:`merge_fields`)."""
        for d in descriptors:
            if d.address != exclude:
                self.insert(d)

    def snapshot_fields(self) -> tuple:
        """Copies of the three columns — the zero-object equivalent of
        :meth:`descriptors` for callers that only need field access."""
        return self._addrs[:], self._ids[:], self._ages[:]

    def merge_fields(
        self,
        addrs: List[int],
        ids: List[int],
        ages: List[int],
        exclude: int = -1,
        extra_addr: Optional[int] = None,
        extra_id: int = 0,
    ) -> None:
        """Columnar :meth:`merge`: insert parallel field lists, then an
        optional fresh (age-0) descriptor of ``extra_addr`` — identical
        order and freshest-wins semantics to merging the corresponding
        Descriptor list with the extra appended, with no objects built.
        """
        slot = self._slot
        A, I, G = self._addrs, self._ids, self._ages
        for k in range(len(addrs)):
            addr = addrs[k]
            if addr == exclude:
                continue
            i = slot.get(addr)
            if i is None:
                slot[addr] = len(A)
                A.append(addr)
                I.append(ids[k])
                G.append(ages[k])
            elif ages[k] < G[i]:
                I[i] = ids[k]
                G[i] = ages[k]
        if extra_addr is not None and extra_addr != exclude:
            i = slot.get(extra_addr)
            if i is None:
                slot[extra_addr] = len(A)
                A.append(extra_addr)
                I.append(extra_id)
                G.append(0)
            elif G[i] > 0:
                I[i] = extra_id
                G[i] = 0

    def merge_view(
        self,
        other: "PartialView",
        exclude: int = -1,
        extra_addr: Optional[int] = None,
        extra_id: int = 0,
    ) -> None:
        """Merge another view's current entries (plus an optional fresh
        extra descriptor) directly from its columns.  The other view is
        only read; callers must not have mutated it since the exchange
        began (snapshot semantics otherwise — use :meth:`snapshot_fields`).
        """
        self.merge_fields(
            other._addrs, other._ids, other._ages,
            exclude=exclude, extra_addr=extra_addr, extra_id=extra_id,
        )

    def random_address(self, rng) -> Optional[int]:
        """A uniformly random member address (same draw as
        :meth:`random_descriptor`), or None if empty."""
        addrs = self._addrs
        if not addrs:
            return None
        return rng.choice(addrs)

    def remove(self, address: int) -> bool:
        """Drop the entry for ``address`` if present (ordered delete)."""
        i = self._slot.pop(address, None)
        if i is None:
            return False
        addrs = self._addrs
        del addrs[i]
        del self._ids[i]
        del self._ages[i]
        slot = self._slot
        for j in range(i, len(addrs)):
            slot[addrs[j]] = j
        return True

    def age_all(self, by: int = 1) -> None:
        """Increase every entry's age (a gossip round passed) — one
        vectorised pass over the age column."""
        self._ages = [a + by for a in self._ages]

    def drop_older_than(self, max_age: int) -> int:
        """Remove entries with ``age > max_age``; returns how many."""
        ages = self._ages
        n = len(ages)
        keep = [i for i in range(n) if ages[i] <= max_age]
        dropped = n - len(keep)
        if dropped:
            self._rebuild(keep)
        return dropped

    def trim(self, rng=None) -> None:
        """Shrink to ``max_size`` keeping the freshest entries.

        Ties *must* be broken randomly when trimming gossip views (pass
        ``rng``): with many same-age entries, any fixed tie-break order
        systematically evicts the same nodes every round and the network's
        collective knowledge collapses onto a small core.  Without ``rng``
        ties break by address — acceptable only for one-shot trims.
        """
        n = len(self._addrs)
        if n <= self.max_size:
            return
        # Tie-breakers are drawn in slot (= insertion) order, one per
        # slot: the draw sequence is part of every seeded trajectory.
        if rng is None:
            minor = self._addrs
        else:
            draw = rng.random
            minor = [draw() for _ in range(n)]
        # The (age, tie-breaker) order as two stable sorts on plain keys:
        # by the tie-breaker, then by age.
        order = sorted(range(n), key=minor.__getitem__)
        order.sort(key=self._ages.__getitem__)
        self._rebuild(order[: self.max_size])

    def _rebuild(self, keep: List[int]) -> None:
        """Re-pack the columns to the given slots, in the given order."""
        addrs, ids, ages = self._addrs, self._ids, self._ages
        self._addrs = [addrs[i] for i in keep]
        self._ids = [ids[i] for i in keep]
        self._ages = [ages[i] for i in keep]
        self._slot = {a: j for j, a in enumerate(self._addrs)}

    # ------------------------------------------------------------------
    # Sampling
    # ------------------------------------------------------------------
    def random_descriptor(self, rng) -> Optional[Descriptor]:
        """A uniformly random entry, or None if empty."""
        addr = self.random_address(rng)
        return None if addr is None else self.get(addr)

    def oldest_descriptor(self) -> Optional[Descriptor]:
        """The entry with the largest age (ties broken by address)."""
        addrs, ages = self._addrs, self._ages
        n = len(addrs)
        if not n:
            return None
        best = 0
        best_age, best_addr = ages[0], addrs[0]
        for i in range(1, n):
            age = ages[i]
            if age > best_age or (age == best_age and addrs[i] < best_addr):
                best, best_age, best_addr = i, age, addrs[i]
        return Descriptor(best_addr, self._ids[best], best_age)

    def sample(self, n: int, rng) -> List[Descriptor]:
        """Up to ``n`` distinct entries, uniformly at random."""
        return [Descriptor(*t) for t in self.sample_fields(n, rng)]

    def sample_fields(self, n: int, rng) -> List[tuple]:
        """:meth:`sample` as ``(address, node_id, age)`` tuples — no
        Descriptor objects (the T-Man exchange-buffer path)."""
        addrs, ids, ages = self._addrs, self._ids, self._ages
        count = len(addrs)
        if count <= n:
            return [(addrs[i], ids[i], ages[i]) for i in range(count)]
        idx = rng.sample(range(count), n)
        return [(addrs[i], ids[i], ages[i]) for i in idx]
