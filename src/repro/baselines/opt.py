"""OPT — overlay-per-topic baseline (SpiderCast-like).

OPT exploits subscription correlation: a node links to peers it shares
topics with, trying to *cover* each of its topics with at least
``coverage`` neighbors, so that per-topic subgraphs are connected and
events flood among subscribers only — zero traffic overhead by
construction.  The cost is the node degree (paper Fig. 10/11):

- **bounded mode** (``max_degree`` set): some topics stay uncovered and
  their subgraphs disconnect — hit ratio below 100%;
- **unbounded mode** (``max_degree=None``): full coverage, but degrees
  grow with the subscription count and the degree distribution grows a
  heavy tail under real-world (Twitter-like) workloads — Fig. 11.

Neighbor selection is greedy coverage-first, utility-ranked (Eq. 1), run
over the same T-Man exchange skeleton and peer sampling as Vitis.
Unlike the paper's SpiderCast, nodes need no prior knowledge of 5% of the
network — the peer sampling service supplies candidates — which is the
comparison the paper sets up.
"""

from __future__ import annotations

from collections import Counter, deque
from typing import Callable, Dict, List, Optional, Set

from repro.core.config import VitisConfig
from repro.core.dissemination import _inline_loss, _make_transmit
from repro.core.profile import NodeProfile
from repro.core.protocol import OverlayProtocolBase
from repro.core.utility import UtilityFunction
from repro.gossip.peer_sampling import PeerSamplingService
from repro.gossip.view import Descriptor
from repro.sim.metrics import DisseminationRecord
from repro.sim.node import BaseNode

__all__ = ["OptNode", "OptProtocol"]


class OptNode(BaseNode):
    """One OPT participant: profile + coverage-greedy neighbor set."""

    __slots__ = ("profile", "ps", "neighbors", "utility", "rng", "max_degree", "coverage")

    def __init__(
        self,
        address: int,
        node_id: int,
        subscriptions,
        utility: UtilityFunction,
        rng,
        view_size: int = 20,
        max_degree: Optional[int] = 15,
        coverage: int = 2,
    ) -> None:
        super().__init__(address)
        self.profile = NodeProfile(address, node_id, subscriptions)
        self.ps = PeerSamplingService(address, node_id, view_size, rng)
        self.utility = utility
        self.rng = rng
        self.max_degree = max_degree
        self.coverage = coverage
        #: Chosen out-neighbors (addresses).  The effective topology is the
        #: undirected union: a link is usable by both endpoints.
        self.neighbors: Set[int] = set()

    @property
    def node_id(self) -> int:
        return self.profile.node_id

    def descriptor(self) -> Descriptor:
        return Descriptor(self.address, self.node_id, 0)

    def join(self, bootstrap: List[Descriptor]) -> None:
        self.ps = PeerSamplingService(
            self.address, self.node_id, self.ps.view.max_size, self.rng
        )
        self.ps.initialize(bootstrap)
        self.neighbors.clear()
        self.start()

    # ------------------------------------------------------------------
    # Coverage-greedy selection
    # ------------------------------------------------------------------
    def select_neighbors(
        self,
        candidates: List[int],
        profile_of: Callable[[int], Optional[NodeProfile]],
    ) -> Set[int]:
        """Greedy per-topic coverage, utility-ranked.

        Pass 1 walks candidates in descending utility and keeps any that
        covers a topic still below the coverage target.  In bounded mode a
        second pass fills remaining slots with the highest-utility
        topic-sharing candidates (densifying the per-topic subgraphs, as
        SpiderCast's "k-coverage plus random" does).
        """
        my_subs = self.profile.subscriptions
        scored = []
        for addr in candidates:
            if addr == self.address:
                continue
            p = profile_of(addr)
            if p is None:
                continue
            shared = my_subs & p.subscriptions
            if not shared:
                continue  # OPT never links without a shared topic
            scored.append((self.utility(self.profile, p), addr, shared))
        scored.sort(key=lambda s: (-s[0], s[1]))

        chosen: Set[int] = set()
        covered: Counter = Counter()
        budget = self.max_degree if self.max_degree is not None else len(scored)
        for _, addr, shared in scored:
            if len(chosen) >= budget:
                break
            if any(covered[t] < self.coverage for t in shared):
                chosen.add(addr)
                covered.update(shared)
        if self.max_degree is not None:
            for _, addr, _shared in scored:
                if len(chosen) >= budget:
                    break
                chosen.add(addr)
        return chosen

    def gossip_exchange(
        self,
        node_of: Callable[[int], Optional["OptNode"]],
        is_alive: Callable[[int], bool],
        profile_of: Callable[[int], Optional[NodeProfile]],
        sample_size: int,
    ) -> Optional[int]:
        """One T-Man-style exchange of candidate sets with a random
        neighbor (falling back to the sampling view while isolated)."""
        peer_addr = self._pick_peer(is_alive)
        if peer_addr is None:
            return None
        peer = node_of(peer_addr)
        if peer is None or not peer.alive:
            self.neighbors.discard(peer_addr)
            return None

        mine = set(self.neighbors)
        mine.update(d.address for d in self.ps.sample(sample_size))
        theirs = set(peer.neighbors)
        theirs.update(d.address for d in peer.ps.sample(sample_size))

        pool_self = list((mine | theirs | {peer_addr}) - {self.address})
        pool_peer = list((mine | theirs | {self.address}) - {peer_addr})
        self.neighbors = self.select_neighbors(pool_self, profile_of)
        peer.neighbors = peer.select_neighbors(pool_peer, profile_of)
        return peer_addr

    def _pick_peer(self, is_alive: Callable[[int], bool]) -> Optional[int]:
        pool = [a for a in self.neighbors if is_alive(a)]
        dead = self.neighbors.difference(pool)
        self.neighbors.difference_update(dead)
        if pool:
            return self.rng.choice(sorted(pool))
        sample = self.ps.sample(1)
        if sample and is_alive(sample[0].address):
            return sample[0].address
        return None

    def prune_dead(self, is_alive: Callable[[int], bool]) -> None:
        self.neighbors = {a for a in self.neighbors if is_alive(a)}


class OptProtocol(OverlayProtocolBase):
    """A complete OPT system.

    Parameters beyond the base ones
    -------------------------------
    max_degree:
        Per-node link budget; ``None`` for the unbounded variant (Fig. 11).
        Defaults to ``config.rt_size`` so OPT and Vitis are compared at
        equal degree, as in Fig. 10.
    coverage:
        Per-topic coverage target (SpiderCast's ``k``; default 2).
    """

    name = "opt"

    def __init__(
        self,
        subscriptions,
        config: VitisConfig = VitisConfig(),
        max_degree: Optional[int] = -1,
        coverage: int = 2,
        **kwargs,
    ):
        self._max_degree = config.rt_size if max_degree == -1 else max_degree
        self._coverage = coverage
        super().__init__(subscriptions, config, **kwargs)

    def _make_node(self, address: int, subscriptions) -> OptNode:
        return OptNode(
            address,
            self.space.node_id(address),
            subscriptions,
            self.utility,
            self.seeds.pyrandom("node", address),
            view_size=self.config.PEER_VIEW_SIZE,
            max_degree=self._max_degree,
            coverage=self._coverage,
        )

    # ------------------------------------------------------------------
    def _protocol_round(self, cycle: int, live: List[OptNode]) -> None:
        tel = self.telemetry
        ps_registry = {n.address: n.ps for n in self.nodes.values() if n.alive}
        ps_ok = ex_ok = pruned = 0
        for node in live:
            if node.ps.step(ps_registry, self.is_alive) is not None:
                ps_ok += 1
        for node in live:
            peer = node.gossip_exchange(
                self.nodes.get, self.is_alive, self.profile_of, self.config.SAMPLE_SIZE
            )
            if peer is not None:
                ex_ok += 1
        fm = self.fault_model
        now = self.engine.now
        for node in live:
            before = len(node.neighbors)
            if fm is None:
                node.prune_dead(self.is_alive)
            else:
                # OPT has no ageing heartbeat: it heals by dropping links
                # that are dead or *surely* severed (partitioned) and
                # letting the coverage exchange re-link afterwards.
                src = node.address
                node.prune_dead(
                    lambda b, src=src: self.is_alive(b)
                    and not fm.severed(src, b, now)
                )
            pruned += before - len(node.neighbors)
        if tel.enabled:
            # Same ``gossip_exchange`` trace schema as Vitis/RVR (the
            # coverage exchange plays the T-Man role; pruned dead links
            # play the eviction role), so runs are comparable.
            self._record_gossip_cycle(cycle, len(live), ps_ok, ex_ok, pruned)

    # ------------------------------------------------------------------
    # Topology: link negotiation under the degree bound
    # ------------------------------------------------------------------
    def undirected_adjacency(self) -> Dict[int, Set[int]]:
        """The effective link set after negotiation.

        A *bounded-degree* overlay means the bound holds for the links a
        node actually serves, not just the ones it asked for — so desired
        links (each node's ``neighbors`` selection) become real links via
        a handshake: proposals are granted in descending utility order
        while **both** endpoints still have budget.  In the unbounded
        variant every proposal is granted.

        Cached per topology version.
        """
        cached = getattr(self, "_adj_cache", None)
        if cached is not None and cached[0] == self.topology_version:
            return cached[1]
        live = self.live_addresses()
        alive = set(live)
        proposals = {}
        for a in live:
            pa = self.profile_of(a)
            for b in self.nodes[a].neighbors:
                if b in alive:
                    key = (a, b) if a < b else (b, a)
                    if key not in proposals:
                        proposals[key] = self.utility(pa, self.profile_of(b))
        ranked = sorted(proposals.items(), key=lambda kv: (-kv[1], kv[0]))

        adj: Dict[int, Set[int]] = {a: set() for a in live}
        for (a, b), _util in ranked:
            cap_a = self.nodes[a].max_degree
            cap_b = self.nodes[b].max_degree
            if cap_a is not None and len(adj[a]) >= cap_a:
                continue
            if cap_b is not None and len(adj[b]) >= cap_b:
                continue
            adj[a].add(b)
            adj[b].add(a)
        self._adj_cache = (self.topology_version, adj)
        return adj

    def degree_distribution(self) -> List[int]:
        """Effective degrees of all live nodes (the Fig. 11 series)."""
        adj = self.undirected_adjacency()
        return sorted(len(v) for v in adj.values())

    def topic_subgraph(self, topic: int) -> Dict[int, Set[int]]:
        """Negotiated adjacency restricted to the topic's live subscribers
        (an event on ``t`` travels a link only when both endpoints
        subscribe to ``t``)."""
        members = self.subscribers(topic)
        full = self.undirected_adjacency()
        adj: Dict[int, Set[int]] = {a: set() for a in members}
        for a in members:
            for b in full.get(a, ()):
                if b in adj:
                    adj[a].add(b)
        return adj

    # ------------------------------------------------------------------
    # Dissemination: pure flooding in the topic overlay
    # ------------------------------------------------------------------
    def _disseminate(self, topic: int, publisher: int, event_id: int) -> DisseminationRecord:
        live_subs = self.subscribers(topic)
        rec = DisseminationRecord(
            topic=topic,
            event_id=event_id,
            publisher=publisher,
            subscribers=frozenset(live_subs - {publisher}),
        )
        if not self.is_alive(publisher):
            return rec
        adj = self.topic_subgraph(topic)
        loss_rate, loss_draw = _inline_loss(self.fault_model, self.capacity)
        transmit = _make_transmit(self, rec, None, loss_rate, loss_draw)
        imsgs = rec.interested_msgs
        get = imsgs.get

        # Entry point: the publisher itself if subscribed, else the topic
        # overlay's access point — a uniformly random member (generous to
        # OPT: a real system pays a lookup to find one).
        if publisher in adj:
            start, start_hop = publisher, 0
        else:
            if not live_subs:
                return rec
            start = self._rng.choice(sorted(live_subs))
            if transmit is not None and not transmit(publisher, start):
                return rec
            start_hop = 1
            imsgs[start] = get(start, 0) + 1
            if start in rec.subscribers:
                rec.delivered_hops[start] = start_hop

        seen = {publisher, start}
        queue = deque([(start, start_hop, publisher)])
        while queue:
            u, hop, sender = queue.popleft()
            for v in adj.get(u, ()):
                if v == sender or not self.is_alive(v):
                    continue
                if loss_rate:
                    # The first trial in place; only a lost one is gated.
                    if loss_draw() < loss_rate and not transmit(u, v, 1):
                        continue
                elif transmit is not None and not transmit(u, v):
                    continue
                imsgs[v] = get(v, 0) + 1
                if v not in seen:
                    seen.add(v)
                    if v in rec.subscribers:
                        rec.delivered_hops[v] = hop + 1
                    queue.append((v, hop + 1, u))
        return rec
