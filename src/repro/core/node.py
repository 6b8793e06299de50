"""A Vitis participant.

Each node composes the substrates exactly as the paper wires them
(Alg. 1):

- a gossip peer sampling service supplying fresh random descriptors;
- a T-Man-style routing-table exchange (Alg. 2/3) whose selection function
  is Alg. 4: successor + predecessor (ring), harmonic small-world links
  (Symphony), and the top-utility friends (Eq. 1);
- periodic profile exchange doubling as heartbeats (Alg. 6/7);
- gateway election state (Alg. 5) and per-topic relay tables.

Nodes are driven by :class:`repro.core.protocol.VitisProtocol`; they keep
no references to the global population other than through the callables the
protocol passes in, mirroring what a real deployment can know.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from itertools import filterfalse
from operator import itemgetter
from typing import Callable, Dict, List, Optional, Tuple

from repro.core.config import VitisConfig
from repro.core.gateway import GatewayState
from repro.core.identifiers import IdSpace
from repro.core.profile import NodeProfile
from repro.core.relay import RelayTable
from repro.core.routing_table import LinkKind, RoutingTable
from repro.core.utility import UtilityFunction
from repro.gossip.peer_sampling import PeerSamplingService
from repro.gossip.view import Descriptor
from repro.sim.node import BaseNode

__all__ = ["VitisNode"]

#: Ring-index orders of ``(address, node_id, age)`` triples.
_BY_ID = itemgetter(1)
_BY_ID_ADDRESS = itemgetter(1, 0)
_ADDRESS = itemgetter(0)


def _ring_index(triples) -> Tuple[List[tuple], List[int]]:
    """Alg. 4's index over ``(address, node_id, age)`` candidates: the
    triples sorted by (node id, address), plus their id column."""
    ring = sorted(triples, key=_BY_ID)
    ids = [t[1] for t in ring]
    if len(set(ids)) < len(ids):
        # Equal ids (small id spaces): order each run by address.  Not
        # unconditionally — comparing key pairs costs 2.5x the id sort.
        ring.sort(key=_BY_ID_ADDRESS)
    return ring, ids


class VitisNode(BaseNode):
    """One Vitis node: profile, routing table, sampling, election state."""

    __slots__ = (
        "config",
        "space",
        "profile",
        "rt",
        "ps",
        "sampler_cls",
        "gw_state",
        "relay",
        "utility",
        "rng",
        "n_estimate",
        "seen_events",
        "_umemo",
        "_ustamp",
    )

    def __init__(
        self,
        address: int,
        node_id: int,
        subscriptions,
        config: VitisConfig,
        space: IdSpace,
        utility: UtilityFunction,
        rng,
        sampler_cls=PeerSamplingService,
    ) -> None:
        super().__init__(address)
        self.config = config
        self.space = space
        self.utility = utility
        self.rng = rng
        self.profile = NodeProfile(address, node_id, subscriptions)
        self.rt = RoutingTable(address, config.rt_size)
        #: Peer sampling implementation — the paper notes any gossip
        #: sampling service works; tests swap in Cyclon to verify.
        self.sampler_cls = sampler_cls
        self.ps = sampler_cls(address, node_id, config.PEER_VIEW_SIZE, rng)
        self.gw_state = GatewayState(address, node_id)
        self.relay = RelayTable(address)
        #: Population estimate for the harmonic draws: 2 until the cycle
        #: driver sets the live population.
        self.n_estimate = 2
        #: Utility memo: address → Eq. 1 utility to that node, valid for
        #: the whole of ``_ustamp``.  See _select_neighbors.
        self._umemo: Dict[int, float] = {}
        self._ustamp: Optional[int] = None
        #: Event ids already handled (duplicate suppression in the
        #: message-level dissemination path).
        self.seen_events: set = set()

    @property
    def node_id(self) -> int:
        return self.profile.node_id

    def descriptor(self) -> Descriptor:
        return Descriptor(self.address, self.node_id, 0)

    # ------------------------------------------------------------------
    # Lifecycle (Alg. 1)
    # ------------------------------------------------------------------
    def join(self, bootstrap: List[Descriptor]) -> None:
        """(Re)join the overlay from bootstrap descriptors.

        A rejoin after a crash starts from amnesia: all protocol state is
        rebuilt from scratch, as a restarted process would.
        """
        self.rt = RoutingTable(self.address, self.config.rt_size)
        self.ps = self.sampler_cls(
            self.address, self.node_id, self.config.PEER_VIEW_SIZE, self.rng
        )
        self.ps.initialize(bootstrap)
        self.gw_state.clear()
        self.relay.clear()
        self.seen_events.clear()
        self._umemo.clear()
        self.start()
        # Seed the routing table immediately so the first T-Man exchange
        # has somewhere to go (Alg. 1 line 3).
        if bootstrap:
            pool = {d.address: (d.address, d.node_id, d.age) for d in bootstrap}
            pool.pop(self.address, None)
            self.rt.replace(self._select_from_pool(pool, lambda a: None))

    # ------------------------------------------------------------------
    # Alg. 4 — selectNeighbors
    # ------------------------------------------------------------------
    def _select_from_pool(
        self,
        pool: Dict[int, tuple],
        profile_of: Callable[[int], Optional[NodeProfile]],
    ) -> List[Tuple[Descriptor, LinkKind]]:
        """Alg. 4 over an ``address → (address, node_id, age)`` pool that
        excludes this node: :meth:`_select_neighbors` on the pool's ring
        index.  The pool is only read."""
        ring, ids = _ring_index(pool.values())
        return self._select_neighbors(ring, ids, profile_of)

    def _select_neighbors(
        self,
        ring: List[tuple],
        ids: List[int],
        profile_of: Callable[[int], Optional[NodeProfile]],
    ) -> List[Tuple[Descriptor, LinkKind]]:
        """Alg. 4 — selectNeighbors — over a ring index of the candidates
        (:func:`_ring_index`, this node excluded; both lists consumed);
        Descriptors are built only for the winners.

        Order follows Alg. 4: successor, predecessor, ``n_sw_links``
        harmonic small-world picks, then the top-utility friends.  Each
        pick removes the candidate, so one neighbor fills at most one slot.

        The ring and small-world picks read the index by bisection: the
        successor is the first id clockwise of mine, the predecessor the
        last id counter-clockwise, a Symphony pick the nearer of the two
        ids around the drawn target (equal distance → lower address); an
        equal-id run is entered at its lowest address and all three wrap.
        Candidates sharing my id never fill a ring slot but stay eligible
        for the other kinds.

        Friends rank by (-utility, age, address).  Precondition: every
        utility is ≥ 0 (Eq. 1 over rates :class:`PublicationRates`
        accepts), so each nonzero utility outranks every zero: only the
        nonzero candidates are keyed and sorted, and the zero rest is
        sorted by (age, address) only when too few are nonzero.

        The ranking reads utilities from ``_umemo`` without checking
        them: one stamp per selection empties the memo whenever *any*
        profile (mine included) changed (the rates never change),
        ``join`` empties it, and a caller whose ``profile_of`` can change
        its answer otherwise drops the address itself (see
        ``DeployedVitisNode._learn``).  Only a memo miss reaches
        ``profile_of`` and Eq. 1; an unknown profile ranks 0.0 and is
        not memoised.
        """
        selection: List[Tuple[Descriptor, LinkKind]] = []
        self_id = self.node_id
        size = self.space.size

        def take(i: int, kind: LinkKind) -> None:
            del ids[i]
            selection.append((Descriptor(*ring.pop(i)), kind))

        if ring:
            i = bisect_right(ids, self_id) % len(ids)
            if ids[i] != self_id:
                take(i, LinkKind.SUCCESSOR)
        if ring:
            last = ids[bisect_left(ids, self_id) - 1]  # -1 wraps
            if last != self_id:
                take(bisect_left(ids, last), LinkKind.PREDECESSOR)

        # Symphony links: harmonic fraction → target id → closest candidate.
        rng = self.rng
        n_est = int(self.n_estimate)
        half = size >> 1
        for _ in range(self.config.n_sw_links):
            if not ring:
                break
            frac = math.pow(n_est, rng.random() - 1.0)
            delta = int(frac * size)
            target = (self_id + (delta if delta > 1 else 1)) % size
            k = bisect_left(ids, target)
            above = k % len(ids)
            below = bisect_left(ids, ids[k - 1])
            d_above = (ids[above] - target) % size
            d_below = (target - ids[below]) % size
            key_above = (size - d_above if d_above > half else d_above, ring[above][0])
            key_below = (size - d_below if d_below > half else d_below, ring[below][0])
            take(above if key_above <= key_below else below, LinkKind.SW)

        n_friends = self.config.rt_size - len(selection)
        if n_friends > 0 and ring:
            util = self.utility
            my_prof = self.profile
            memo = self._umemo
            stamp = NodeProfile._epoch
            if stamp != self._ustamp:
                memo.clear()
                self._ustamp = stamp
            for addr in filterfalse(memo.__contains__, map(_ADDRESS, ring)):
                other = profile_of(addr)
                if other is not None:
                    memo[addr] = util(my_prof, other)
            get = memo.get
            keyed = [(-u, age, a, i) for a, i, age in ring if (u := get(a))]
            keyed.sort()
            for _, age, a, i in keyed[:n_friends]:
                selection.append((Descriptor(a, i, age), LinkKind.FRIEND))
            n_zero = n_friends - len(keyed)
            if n_zero > 0:
                zero = [(age, a, i) for a, i, age in ring if not get(a)]
                zero.sort()
                for age, a, i in zero[:n_zero]:
                    selection.append((Descriptor(a, i, age), LinkKind.FRIEND))

        return selection

    # ------------------------------------------------------------------
    # Alg. 2/3 — routing-table exchange
    # ------------------------------------------------------------------
    def _exchange_pool(self) -> Dict[int, tuple]:
        """Alg. 2 lines 3-4: fresh samples merged with the routing table
        (freshest wins), then this node's own zero-age descriptor last —
        as ``address → (address, node_id, age)``.  The values are the
        wire triples of an ``RtExchange*`` buffer, so the pool is what a
        node ships and what it merges a received buffer into; the
        selection pass builds Descriptors only for the winners."""
        pool: Dict[int, tuple] = {}
        for t in self.ps.sample_fields(self.config.SAMPLE_SIZE):
            pool[t[0]] = t
        for e in self.rt:
            d = e.descriptor
            addr = d.address
            age = e.age
            cur = pool.get(addr)
            if cur is None or age < cur[2]:
                pool[addr] = (addr, d.node_id, age)
        self_addr = self.address
        pool.pop(self_addr, None)
        pool[self_addr] = (self_addr, self.node_id, 0)
        return pool

    def _merge_and_select(
        self,
        mine: Dict[int, tuple],
        received,
        profile_of: Callable[[int], Optional[NodeProfile]],
    ) -> None:
        """Alg. 2 lines 6-7 / Alg. 3 lines 4-5: merge a received buffer
        (an iterable of wire triples) into my own — one candidate per
        address, freshest wins, self excluded — and install Alg. 4's
        selection from the result."""
        merged = dict(mine)
        for t in received:
            cur = merged.get(t[0])
            if cur is None or t[2] < cur[2]:
                merged[t[0]] = t
        # My own slot (always present: ``mine`` ends with it) kept any
        # echo of me in ``received`` from becoming a candidate.
        del merged[self.address]
        self.rt.replace(self._select_from_pool(merged, profile_of))

    def tman_step(
        self,
        node_of: Callable[[int], Optional["VitisNode"]],
        is_alive: Callable[[int], bool],
        profile_of: Callable[[int], Optional[NodeProfile]],
    ) -> Optional[int]:
        """One active T-Man exchange (Alg. 2); the peer's passive side
        (Alg. 3) runs in the same call.  Returns the peer exchanged with.

        Both sides' merges (:meth:`_merge_and_select`) are one merge here,
        and one ring index serves both selections.  Two merged pools
        could differ only in which of two equal-age triples a tie keeps,
        and those are equal: an address carries one id.  Each side, mine
        first, selects from a copy of the index without its own entry.
        """
        peer_addr = self._pick_exchange_peer(is_alive)
        if peer_addr is None:
            return None
        peer = node_of(peer_addr)
        if peer is None or not peer.alive:
            self.rt.remove(peer_addr)
            return None
        merged = self._exchange_pool()
        for t in peer._exchange_pool().values():
            cur = merged.get(t[0])
            if cur is None or t[2] < cur[2]:
                merged[t[0]] = t
        ring, ids = _ring_index(merged.values())
        for node in (self, peer):
            # Both pools end with their owner's zero-age triple, so the
            # entry is there; an equal-id run is ordered by address.
            k = bisect_left(ids, node.node_id)
            while ring[k][0] != node.address:
                k += 1
            node.rt.replace(node._select_neighbors(
                ring[:k] + ring[k + 1:], ids[:k] + ids[k + 1:], profile_of
            ))
        return peer_addr

    def _pick_exchange_peer(self, is_alive: Callable[[int], bool]) -> Optional[int]:
        """A uniformly random live routing-table neighbor; fall back to the
        sampling view while the table is still empty (fresh join)."""
        addrs = self.rt.addresses
        self.rng.shuffle(addrs)
        for a in addrs:
            if is_alive(a):
                return a
            self.rt.remove(a)
        sample = self.ps.sample(1)
        if sample and is_alive(sample[0].address):
            return sample[0].address
        return None

    # ------------------------------------------------------------------
    # Alg. 6/7 — profile exchange / heartbeats
    # ------------------------------------------------------------------
    def heartbeat_step(self, is_alive: Callable[[int], bool]) -> List[int]:
        """Age neighbors; evict those silent past the staleness threshold.
        Returns evicted addresses."""
        return self.rt.age_and_evict(is_alive, self.config.STALENESS_THRESHOLD)
