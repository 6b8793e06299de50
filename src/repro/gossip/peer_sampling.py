"""Newscast-style gossip peer sampling service.

Every node keeps a small partial view of the network.  Once per cycle it
picks a uniformly random peer from its view, both sides pool their views
plus a fresh descriptor of themselves, and each keeps the ``view_size``
freshest entries.  The emergent communication graph is close to a random
graph, so :meth:`PeerSamplingService.sample` approximates uniform random
sampling of the live population — the property Vitis, T-Man and both
baselines build on (paper section III-A, reference [6]/[25]).

Services are wired together through a *registry* (``address → service``)
plus a liveness predicate, so they are independent of any particular node
class.  Exchanges with dead peers fail like lost datagrams: the caller
drops the peer from its view and retries next cycle.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional

from repro.gossip.view import Descriptor, PartialView

__all__ = ["Sampler", "PeerSamplingService"]


class Sampler:
    """What every peer sampling implementation shares: the bounded view,
    bootstrap, eviction on external liveness evidence, and the sampling
    API T-Man and the overlays consume.  A subclass adds ``step`` — one
    active gossip round against a registry of its peers' services."""

    __slots__ = ("address", "node_id", "view", "rng")

    def __init__(self, address: int, node_id: int, view_size: int, rng) -> None:
        self.address = address
        self.node_id = node_id
        self.view = PartialView(view_size)
        self.rng = rng

    def initialize(self, seeds: List[Descriptor]) -> None:
        """Fill the view from bootstrap descriptors (e.g. from a well-known
        bootstrap node, paper Alg. 1 line 3)."""
        self.view.merge(seeds, exclude=self.address)
        self.view.trim()

    def descriptor(self) -> Descriptor:
        """A fresh descriptor of this node (age 0)."""
        return Descriptor(self.address, self.node_id, 0)

    def evict(self, address: int) -> bool:
        """Drop ``address`` from the view on external liveness evidence
        (e.g. a failure detector confirming it dead), so its descriptor
        stops circulating.  Returns True if it was present."""
        return self.view.remove(address)

    def sample(self, n: int) -> List[Descriptor]:
        """Up to ``n`` approximately-uniform random descriptors."""
        return self.view.sample(n, self.rng)

    def sample_fields(self, n: int) -> List[tuple]:
        """:meth:`sample` as ``(address, node_id, age)`` tuples (same rng
        draws); consumed by the columnar T-Man exchange buffer."""
        return self.view.sample_fields(n, self.rng)


class PeerSamplingService(Sampler):
    """One node's endpoint of the Newscast protocol.

    Parameters
    ----------
    address, node_id:
        The owner's address and overlay id.
    view_size:
        Bound on the partial view (Newscast's ``c``; 20 by default, a
        common setting in the literature).
    rng:
        Per-node ``random.Random``; all draws of this service come from it.
    max_age:
        Entries older than this many rounds are dropped outright: they
        belong to nodes that stopped refreshing themselves — dead, or no
        longer reachable — and would otherwise circulate forever.
    """

    __slots__ = ("max_age",)

    def __init__(
        self, address: int, node_id: int, view_size: int, rng, max_age: int = 10
    ) -> None:
        super().__init__(address, node_id, view_size, rng)
        self.max_age = max_age

    # ------------------------------------------------------------------
    # Protocol step
    # ------------------------------------------------------------------
    def step(
        self,
        registry: Dict[int, "PeerSamplingService"],
        is_alive: Callable[[int], bool],
    ) -> Optional[int]:
        """One active Newscast round.  Returns the peer exchanged with.

        The passive side's state is updated in the same call — gossip
        exchanges are modelled as atomic within a cycle, the PeerSim
        cycle-driven idiom.
        """
        self.view.age_all()
        self.view.drop_older_than(self.max_age)
        peer_addr = self.view.random_address(self.rng)
        if peer_addr is None:
            return None
        if not is_alive(peer_addr) or peer_addr not in registry:
            # Failed exchange: the peer is gone; forget it.
            self.view.remove(peer_addr)
            return None

        peer = registry[peer_addr]
        # Snapshot my side before mutation so the exchange is symmetric;
        # the peer's view can be read in place because it is only mutated
        # after my merge completes.  Both merges run columnar — no
        # Descriptor objects are built for the exchange.
        ma, mi, mg = self.view.snapshot_fields()
        self.view.merge_view(
            peer.view, exclude=self.address,
            extra_addr=peer_addr, extra_id=peer.node_id,
        )
        self.view.trim(self.rng)
        peer.view.merge_fields(
            ma, mi, mg, exclude=peer_addr,
            extra_addr=self.address, extra_id=self.node_id,
        )
        peer.view.trim(peer.rng)
        return peer_addr
