"""Gateway election — paper Algorithm 5.

For every topic it subscribes to, a node keeps a *proposal*
``(GW, parent, hops)``: the best gateway candidate it knows, the neighbor
it learned it from, and its own hop distance to that gateway.  Every round
the proposal is recomputed from scratch (Alg. 5 line 3 re-inits to self)
and the best neighbor proposal — the one whose gateway id is circularly
closest to ``hash(t)`` — is adopted, provided the adoption keeps the node
within ``d`` hops of the gateway.

Consequences (paper section III-B):

- every cluster elects at least one gateway (a node that finds nothing
  better than itself within reach stays gateway);
- the number of gateways per cluster is proportional to the cluster
  diameter, controlled by ``d``;
- no consensus is needed; several gateways per cluster are allowed and
  improve robustness at the cost of extra relay paths.

Proposals spread one hop per round, so election stabilises within
``min(diameter, d)`` rounds of a topology change.

Loop avoidance: Alg. 5 line 7 accepts a neighbor's proposal only if the
neighbor either originated it (``neighbor == new.parent``) or its parent is
outside the local routing table.  We additionally never adopt a proposal
whose gateway is ourselves via someone else (it could only report a stale
hop count for us); the strict distance-improvement order (lines 8–10)
already rules out cyclic adoption of distinct gateways.
"""

from __future__ import annotations

from typing import Callable, Dict, FrozenSet, Iterable, List, Mapping, Optional

from repro.core.identifiers import IdSpace
from repro.core.routing_table import RoutingTable

__all__ = ["Proposal", "GatewayState", "ElectionStats", "elect_round"]


class Proposal:
    """A gateway proposal for one topic, as held by one node.

    Value object, treated as immutable.  A plain ``__slots__`` class
    rather than a frozen dataclass: election re-creates one proposal per
    (node, topic) every round, and the frozen-dataclass ``__init__``
    (``object.__setattr__`` per field) was a measurable share of the
    round.
    """

    __slots__ = ("gw_addr", "gw_id", "parent_addr", "hops")

    def __init__(self, gw_addr: int, gw_id: int, parent_addr: int, hops: int) -> None:
        self.gw_addr = gw_addr
        self.gw_id = gw_id
        self.parent_addr = parent_addr
        self.hops = hops

    def is_self_proposal(self, address: int) -> bool:
        return self.gw_addr == address

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Proposal)
            and self.gw_addr == other.gw_addr
            and self.gw_id == other.gw_id
            and self.parent_addr == other.parent_addr
            and self.hops == other.hops
        )

    def __hash__(self) -> int:
        return hash((self.gw_addr, self.gw_id, self.parent_addr, self.hops))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Proposal(gw_addr={self.gw_addr}, gw_id={self.gw_id}, "
            f"parent_addr={self.parent_addr}, hops={self.hops})"
        )


class ElectionStats:
    """Per-round election bookkeeping (filled by :func:`elect_round` when
    the caller passes one; used by the telemetry layer).

    ``adoptions`` counts proposals taken over from a neighbor this round;
    ``self_proposals`` counts topics for which a node kept (or fell back
    to) itself — together they show how far the Alg. 5 fixed point still
    is: a converged static topology adopts the same proposals every round.
    """

    __slots__ = ("proposals", "adoptions", "self_proposals")

    def __init__(self) -> None:
        self.proposals = 0
        self.adoptions = 0
        self.self_proposals = 0

    def reset(self) -> None:
        self.proposals = 0
        self.adoptions = 0
        self.self_proposals = 0


class GatewayState:
    """Per-node election state: ``topic → Proposal``."""

    __slots__ = ("address", "node_id", "proposals", "version", "_self_props")

    #: Monotonic stamp source shared by every state object, so a version
    #: uniquely identifies one proposal-map content even across node
    #: rejoin (which builds a fresh GatewayState).
    _stamp = 0

    def __init__(self, address: int, node_id: int) -> None:
        self.address = address
        self.node_id = node_id
        self.proposals: Dict[int, Proposal] = {}
        #: Bumped whenever ``proposals`` may have changed content; equal
        #: versions guarantee equal content (the election result cache
        #: keys on it).
        self.version = self._bump()
        #: Pool of this node's own ``(self, self, 0)`` proposals, one per
        #: topic.  Proposals are immutable and the pooled fields depend
        #: only on ``address``/``node_id``, which never change for a state
        #: object — so the pool needs no invalidation, ever.
        self._self_props: Dict[int, Proposal] = {}

    @classmethod
    def _bump(cls) -> int:
        cls._stamp += 1
        return cls._stamp

    def commit(self, proposals: Dict[int, Proposal]) -> None:
        """Install a new round's proposal map, bumping :attr:`version`
        only when the content actually changed (Alg. 5 reaches a fixed
        point quickly, so consecutive rounds are often identical)."""
        if proposals != self.proposals:
            self.proposals = proposals
            self.version = self._bump()

    def get(self, topic: int) -> Optional[Proposal]:
        return self.proposals.get(topic)

    def gateway_topics(self) -> List[int]:
        """Topics for which this node currently considers itself gateway."""
        return [t for t, p in self.proposals.items() if p.gw_addr == self.address]

    def drop_dead(self, is_alive: Callable[[int], bool]) -> List[int]:
        """Forget proposals whose gateway or parent is unreachable.

        Returns the affected topics.  Used by relay repair: a stale
        proposal pointing at a crashed gateway would otherwise win every
        re-election round (Alg. 5 adopts the closest *known* gateway and
        has no liveness input of its own — in deployment the proposal dies
        with the profile message that stops arriving).
        """
        stale = [
            t for t, p in self.proposals.items()
            if not is_alive(p.gw_addr) or not is_alive(p.parent_addr)
        ]
        for t in stale:
            del self.proposals[t]
        if stale:
            self.version = self._bump()
        return stale

    def clear(self) -> None:
        if self.proposals:
            self.version = self._bump()
        self.proposals.clear()


def elect_round(
    space: IdSpace,
    state: GatewayState,
    subscriptions: FrozenSet[int],
    rt: RoutingTable,
    neighbor_subscriptions: Callable[[int], FrozenSet[int]],
    neighbor_proposals: Mapping[int, Mapping[int, Proposal]],
    topic_ids: Callable[[int], int],
    depth: int,
    stats: Optional[ElectionStats] = None,
) -> Dict[int, Proposal]:
    """One Alg. 5 round for one node; returns the *new* proposal map.

    The caller commits the returned map afterwards (two-phase update), so
    every node in a cycle reads its neighbors' previous-round proposals —
    the synchronous-round equivalent of proposals piggybacked on profile
    messages.

    Parameters
    ----------
    neighbor_subscriptions:
        ``addr → frozenset`` of the neighbor's topics (from its last
        profile message).
    neighbor_proposals:
        ``addr → (topic → Proposal)`` — every neighbor's proposals as of
        the previous round (a snapshot the driver builds once per round,
        or what the neighbor's last profile message carried).  A missing
        neighbor or topic means no proposal.
    topic_ids:
        ``topic → hash(topic)`` in the id space.
    depth:
        The ``d`` threshold.
    stats:
        Optional :class:`ElectionStats` accumulating adoption counts
        across nodes within a round (telemetry).

    The hot loop is restructured against the naive Alg. 5 transcription:
    per-neighbor work (profile lookup, acceptance filtering) happens once
    per routing-table entry via a set intersection with the neighbor's
    subscriptions, and candidates are bucketed per shared topic *in
    routing-table order* — the adoption scan is order-sensitive (strict
    improvement plus same-gateway hop shortening), so preserving that
    order keeps results identical to the per-topic rescan.
    """
    new_proposals: Dict[int, Proposal] = {}
    self_addr = state.address
    self_id = state.node_id
    size = space.size
    half = size >> 1

    # Pass 1 — per neighbor: acceptance-filter its previous-round
    # proposals for every shared topic, bucketing survivors per topic in
    # routing-table order.
    rt_addresses = set()
    shared_by_neighbor = []
    for entry in rt:
        naddr = entry.address
        rt_addresses.add(naddr)
        nsubs = neighbor_subscriptions(naddr)
        if nsubs:
            shared = subscriptions & nsubs  # Alg. 5 line 5
            if shared:
                shared_by_neighbor.append((naddr, shared))

    by_topic: Dict[int, list] = {}
    for naddr, shared in shared_by_neighbor:
        props = neighbor_proposals.get(naddr)
        if props is None:
            continue
        for topic in shared:
            new = props.get(topic)
            if new is None:
                continue
            # Alg. 5 line 7 acceptance condition (see module docstring).
            parent = new.parent_addr
            if parent != naddr and parent in rt_addresses:
                continue
            if new.gw_addr == self_addr and parent != self_addr:
                continue  # echoed self-proposal with stale hop count
            by_topic.setdefault(topic, []).append((naddr, new))

    # Pass 2 — per topic: the order-sensitive adoption scan over the
    # pre-filtered candidates, ring distances inlined.  Whenever the scan
    # ends on self — including the common case of no candidates at all —
    # the resulting proposal is always ``(self, self, self, 0)``: once the
    # scan adopts a strictly closer gateway it can never return to self
    # (self's distance is no longer strictly smaller, and the
    # hop-shortening branch needs hops < 0 while gw is still self).  Those
    # proposals are pooled per topic on the state instead of reallocated
    # every round.
    self_props = state._self_props
    for topic in subscriptions:
        cands = by_topic.get(topic)
        if cands:
            t_id = topic_ids(topic)
            # Alg. 5 line 3: restart from self each round.
            gw_addr, gw_id, parent_addr, hops = self_addr, self_id, self_addr, 0
            d = (self_id - t_id) % size
            current_dis = d if d <= half else size - d

            for naddr, new in cands:
                d = (new.gw_id - t_id) % size
                new_dis = d if d <= half else size - d
                new_hops = new.hops + 1
                if new_dis < current_dis and new_hops < depth:
                    gw_addr, gw_id, parent_addr, hops = new.gw_addr, new.gw_id, naddr, new_hops
                    current_dis = new_dis
                elif new.gw_addr == gw_addr and new_hops < hops:
                    gw_addr, gw_id, parent_addr, hops = new.gw_addr, new.gw_id, naddr, new_hops
        else:
            gw_addr = self_addr

        if gw_addr == self_addr:
            p = self_props.get(topic)
            if p is None:
                p = self_props[topic] = Proposal(self_addr, self_id, self_addr, 0)
            new_proposals[topic] = p
            if stats is not None:
                stats.proposals += 1
                stats.self_proposals += 1
        else:
            new_proposals[topic] = Proposal(gw_addr, gw_id, parent_addr, hops)
            if stats is not None:
                stats.proposals += 1
                stats.adoptions += 1

    return new_proposals
