"""Node profiles: identity plus subscriptions.

A profile is what a node periodically pushes to its routing-table neighbors
(paper Alg. 6): its id and the set of topic ids it subscribes to.  Gateway
proposals are piggybacked on the same message; they live in
:mod:`repro.core.gateway` and reference the profile.

Profiles carry a *version* that increments on every subscription change, so
utility caches can be invalidated precisely.
"""

from __future__ import annotations

from typing import FrozenSet, Iterable, Set

__all__ = ["NodeProfile"]


class NodeProfile:
    """Identity + subscription set of one node."""

    __slots__ = ("address", "node_id", "_subscriptions", "version", "_frozen")

    #: Bumped with every subscription change of *any* profile: a cache
    #: over many profiles is valid while this stands still (see
    #: ``VitisNode._select_neighbors``).
    _epoch = 0

    def __init__(self, address: int, node_id: int, subscriptions: Iterable[int] = ()) -> None:
        self.address = address
        self.node_id = node_id
        self._subscriptions: Set[int] = set(subscriptions)
        self.version = 0
        self._frozen: FrozenSet[int] = frozenset(self._subscriptions)

    # ------------------------------------------------------------------
    @property
    def subscriptions(self) -> FrozenSet[int]:
        """The current subscription set (immutable snapshot)."""
        return self._frozen

    def subscribes_to(self, topic: int) -> bool:
        return topic in self._subscriptions

    def __len__(self) -> int:
        return len(self._subscriptions)

    # ------------------------------------------------------------------
    def subscribe(self, topic: int) -> bool:
        """Add a topic; returns True if it was new."""
        if topic in self._subscriptions:
            return False
        self._subscriptions.add(topic)
        self._bump()
        return True

    def unsubscribe(self, topic: int) -> bool:
        """Remove a topic; returns True if it was present."""
        if topic not in self._subscriptions:
            return False
        self._subscriptions.remove(topic)
        self._bump()
        return True

    def _bump(self) -> None:
        self.version += 1
        NodeProfile._epoch += 1
        self._frozen = frozenset(self._subscriptions)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"NodeProfile(addr={self.address}, id={self.node_id:#x}, "
            f"|subs|={len(self._subscriptions)}, v{self.version})"
        )
