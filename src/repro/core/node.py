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
        self.ps = sampler_cls(address, node_id, config.peer_view_size, rng)
        self.gw_state = GatewayState(address, node_id)
        self.relay = RelayTable(address)
        self.n_estimate = max(2, config.n_estimate)
        #: Utility memo: addr -> (my profile version, other profile
        #: version, rates version, utility).  See _select_from_pool.
        self._umemo: Dict[int, tuple] = {}
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
            self.address, self.node_id, self.config.peer_view_size, self.rng
        )
        self.ps.initialize(bootstrap)
        self.gw_state.clear()
        self.relay.clear()
        self.seen_events.clear()
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
        """Alg. 4 — selectNeighbors — over an ``address → (address,
        node_id, age)`` pool (consumed destructively); Descriptors are
        built only for the winners.

        Order follows Alg. 4: successor, predecessor, ``n_sw_links``
        harmonic small-world picks, then the top-utility friends.  Each
        pick removes the candidate from the pool, so one neighbor fills at
        most one slot.

        Successor and predecessor are found in one fused pass: both are
        minima by (ring distance, address), so we track the best successor
        plus the two best predecessor candidates — the runner-up covers the
        case where the winner is claimed by the successor slot first (the
        sequential formulation removes the successor from the pool before
        scanning for the predecessor).

        The small-world draw (harmonic fraction → target id → closest
        candidate) and the friends ranking are inlined: at bench scale the
        pools are a dozen entries, where helper-call overhead costs more
        than the arithmetic itself.  Utilities are memoised per neighbor
        under the (own profile version, neighbor profile version, rates
        version) triple, so the Eq. 1 evaluation runs once per neighbor
        per subscription change instead of once per ranking.
        """
        selection: List[Tuple[Descriptor, LinkKind]] = []
        self_id = self.node_id
        size = self.space.size

        best_s = None  # (cw, address, triple)
        best_p = None  # (ccw, address, triple)
        second_p = None
        for addr, t in pool.items():
            cw = (t[1] - self_id) % size
            if cw == 0:
                continue
            if best_s is None or cw < best_s[0] or (cw == best_s[0] and addr < best_s[1]):
                best_s = (cw, addr, t)
            ccw = size - cw
            if best_p is None or ccw < best_p[0] or (ccw == best_p[0] and addr < best_p[1]):
                second_p = best_p
                best_p = (ccw, addr, t)
            elif second_p is None or ccw < second_p[0] or (ccw == second_p[0] and addr < second_p[1]):
                second_p = (ccw, addr, t)

        if best_s is not None:
            addr = best_s[1]
            selection.append((Descriptor(*best_s[2]), LinkKind.SUCCESSOR))
            del pool[addr]
            if best_p is not None and best_p[1] == addr:
                best_p = second_p
        if best_p is not None:
            selection.append((Descriptor(*best_p[2]), LinkKind.PREDECESSOR))
            del pool[best_p[1]]

        # Symphony links: draw_sw_target + closest_to_target, inlined.
        rng = self.rng
        n_est = int(self.n_estimate)
        half = size >> 1
        for _ in range(self.config.n_sw_links):
            if not pool:
                break
            frac = math.pow(n_est, rng.random() - 1.0)
            delta = int(frac * size)
            target = (self_id + (delta if delta > 1 else 1)) % size
            pick_a = None
            pick_t = None
            pick_d = None
            for addr, t in pool.items():
                dist = (t[1] - target) % size
                if dist > half:
                    dist = size - dist
                if pick_d is None or dist < pick_d or (dist == pick_d and addr < pick_a):
                    pick_a, pick_t, pick_d = addr, t, dist
            if pick_a is None:
                break
            selection.append((Descriptor(*pick_t), LinkKind.SW))
            del pool[pick_a]

        n_friends = self.config.rt_size - len(selection)
        if n_friends > 0 and pool:
            util = self.utility
            my_prof = self.profile
            my_ver = my_prof.version
            rates_ver = util._rates_version()
            memo = self._umemo
            keyed = []
            for addr, t in pool.items():
                other = profile_of(addr)
                if other is None:
                    u = 0.0
                else:
                    e = memo.get(addr)
                    if (
                        e is not None
                        and e[0] == my_ver
                        and e[1] == other.version
                        and e[2] == rates_ver
                    ):
                        u = e[3]
                    else:
                        u = util(my_prof, other)
                        memo[addr] = (my_ver, other.version, rates_ver, u)
                keyed.append((-u, t[2], addr, t[1]))
            keyed.sort()
            for item in keyed[:n_friends]:
                selection.append((Descriptor(item[2], item[3], item[1]), LinkKind.FRIEND))

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
        for t in self.ps.sample_fields(self.config.sample_size):
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
        """
        peer_addr = self._pick_exchange_peer(is_alive)
        if peer_addr is None:
            return None
        peer = node_of(peer_addr)
        if peer is None or not peer.alive:
            self.rt.remove(peer_addr)
            return None
        mine = self._exchange_pool()
        theirs = peer._exchange_pool()
        self._merge_and_select(mine, theirs.values(), profile_of)
        peer._merge_and_select(theirs, mine.values(), profile_of)
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
        return self.rt.age_and_evict(is_alive, self.config.staleness_threshold)

    # ------------------------------------------------------------------
    # Message-level path (reference dissemination)
    # ------------------------------------------------------------------
    def on_message(self, msg) -> None:
        """Dispatch notifications to the active dissemination run.

        The message-level dissemination (reference path) installs itself
        as ``notification_sink`` on the network; outside such a run
        notifications are ignored.
        """
        from repro.sim.messages import Notification

        if isinstance(msg, Notification):
            sink = self.network.notification_sink
            if sink is not None:
                sink.on_notification(self, msg)

    # ------------------------------------------------------------------
    # Introspection helpers (analysis & tests)
    # ------------------------------------------------------------------
    def interested_neighbors(
        self, topic: int, profile_of: Callable[[int], Optional[NodeProfile]]
    ) -> List[int]:
        """Routing-table neighbors subscribed to ``topic``."""
        out = []
        for e in self.rt:
            p = profile_of(e.address)
            if p is not None and p.subscribes_to(topic):
                out.append(e.address)
        return out

    def degree(self) -> int:
        return len(self.rt)
