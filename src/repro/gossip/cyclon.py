"""Cyclon shuffle peer sampling (Voulgaris et al., 2005).

An alternative implementation of the peer sampling service: instead of
exchanging whole views with a random peer, Cyclon picks its *oldest* peer
and swaps a small random *shuffle subset*.  Compared to Newscast this
produces views with lower in-degree skew and faster removal of dead links —
useful as a drop-in replacement to check that Vitis really is agnostic to
the sampling implementation (the paper cites both [24]=Cyclon and
[25]=Newscast as acceptable).

The public API is :class:`repro.gossip.peer_sampling.Sampler`'s, like
:class:`repro.gossip.peer_sampling.PeerSamplingService`'s.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional

from repro.gossip.peer_sampling import Sampler
from repro.gossip.view import Descriptor, PartialView

__all__ = ["CyclonService"]


class CyclonService(Sampler):
    """One node's endpoint of the Cyclon shuffle protocol."""

    __slots__ = ("shuffle_len",)

    def __init__(
        self,
        address: int,
        node_id: int,
        view_size: int,
        rng,
        shuffle_len: Optional[int] = None,
    ) -> None:
        super().__init__(address, node_id, view_size, rng)
        self.shuffle_len = shuffle_len if shuffle_len is not None else max(1, view_size // 2)

    def step(
        self,
        registry: Dict[int, "CyclonService"],
        is_alive: Callable[[int], bool],
    ) -> Optional[int]:
        """One active shuffle with the oldest peer in the view."""
        self.view.age_all()
        target = self.view.oldest_descriptor()
        if target is None:
            return None
        peer_addr = target.address
        # The initiator always removes the target from its view: if the
        # exchange succeeds the reply refills the slot; if it fails the dead
        # peer is gone.  This is Cyclon's self-healing property.
        self.view.remove(peer_addr)
        if not is_alive(peer_addr) or peer_addr not in registry:
            return None

        peer = registry[peer_addr]
        # sample() hands out caller-owned descriptors, so the shuffle
        # subsets need no defensive copies.
        out = self.view.sample(self.shuffle_len - 1, self.rng) + [self.descriptor()]
        back = peer.view.sample(self.shuffle_len, peer.rng)

        # Peer absorbs our subset, bounded by its view size, preferring to
        # replace the entries it sent us.
        self._absorb(peer.view, out, sent=back, self_addr=peer_addr)
        self._absorb(self.view, back, sent=out, self_addr=self.address)
        return peer_addr

    @staticmethod
    def _absorb(
        view: PartialView,
        incoming: List[Descriptor],
        sent: List[Descriptor],
        self_addr: int,
    ) -> None:
        sent_addrs = {d.address for d in sent}
        for d in incoming:
            if d.address == self_addr:
                continue
            if len(view) >= view.max_size and d.address not in view:
                # Make room by evicting one of the entries we shipped out,
                # else the oldest entry.
                victim = None
                for a in sent_addrs:
                    if a in view:
                        victim = a
                        break
                if victim is None:
                    oldest = view.oldest_descriptor()
                    victim = oldest.address if oldest else None
                if victim is not None:
                    view.remove(victim)
                    sent_addrs.discard(victim)
            view.insert(d)
        view.trim()  # bound only; eviction above already randomised
