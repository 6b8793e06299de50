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


class GatewayState:
    """Per-node election state: ``topic → Proposal``.

    :attr:`proposals` is a value: every writer installs a new dict and
    none edits the committed one, so a reader that holds the map (a
    neighbor that was sent it in a profile message) keeps what it was
    given without copying.
    """

    __slots__ = ("address", "node_id", "proposals", "_own")

    def __init__(self, address: int, node_id: int) -> None:
        self.address = address
        self.node_id = node_id
        self.proposals: Dict[int, Proposal] = {}
        #: topic → (this node's own ``(self, self, 0)`` proposal,
        #: ``hash(topic)``, own distance to it), pooled by
        #: :func:`elect_round`.  Proposals are immutable and the pooled
        #: fields depend only on ``address``/``node_id`` and the id space,
        #: which never change for a state object — so the pool needs no
        #: invalidation, ever.
        self._own: Dict[int, tuple] = {}

    def commit(self, proposals: Dict[int, Proposal]) -> None:
        """Install a new round's proposal map."""
        self.proposals = proposals

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
        kept: Dict[int, Proposal] = {}
        stale = []
        for t, p in self.proposals.items():
            if is_alive(p.gw_addr) and is_alive(p.parent_addr):
                kept[t] = p
            else:
                stale.append(t)
        if stale:
            self.proposals = kept
        return stale

    def clear(self) -> None:
        self.proposals = {}


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

    One pass over the routing table in table order with running
    per-topic state ``[gw_addr, gw_id, parent, hops, distance]`` — present
    once a neighbor's gateway was adopted, and never back to self after
    that (self's distance is no longer strictly smaller).  Per topic the
    candidates arrive in table order, which is all the order-sensitive
    adoption scan (strict improvement plus same-gateway hop shortening)
    needs, so the result equals the per-topic rescan of Alg. 5.  A
    gateway address names one id, so a candidate repeating the current
    gateway can only shorten the hop count and needs no distance.
    """
    self_addr = state.address
    self_id = state.node_id
    size = space.size
    half = size >> 1
    own = state._own
    for topic in subscriptions - own.keys():
        t_id = topic_ids(topic)
        own[topic] = (Proposal(self_addr, self_id, self_addr, 0), t_id, space.distance(self_id, t_id))

    table = rt.by_address()
    adopted: Dict[int, list] = {}
    for naddr in table:
        nsubs = neighbor_subscriptions(naddr)
        props = neighbor_proposals.get(naddr)
        if not nsubs or not props:
            continue
        for topic in subscriptions & nsubs:  # Alg. 5 line 5
            new = props.get(topic)
            # A proposal naming this node as gateway can never change the
            # state: it neither improves on self nor shortens hops below 0.
            if new is None or new.gw_addr == self_addr:
                continue
            # Alg. 5 line 7 acceptance condition (see module docstring).
            parent = new.parent_addr
            if parent != naddr and parent in table:
                continue
            new_hops = new.hops + 1
            cur = adopted.get(topic)
            if cur is not None and new.gw_addr == cur[0]:
                if new_hops < cur[3]:
                    cur[2], cur[3] = naddr, new_hops
            elif new_hops < depth:
                d = (new.gw_id - own[topic][1]) % size
                if d > half:
                    d = size - d
                # Alg. 5 line 3: every round restarts from self.
                if d < (own[topic][2] if cur is None else cur[4]):
                    adopted[topic] = [new.gw_addr, new.gw_id, naddr, new_hops, d]

    if stats is not None:
        stats.proposals += len(subscriptions)
        stats.adoptions += len(adopted)
        stats.self_proposals += len(subscriptions) - len(adopted)
    new_proposals: Dict[int, Proposal] = {}
    for topic in subscriptions:
        cur = adopted.get(topic)
        new_proposals[topic] = (
            own[topic][0] if cur is None else Proposal(cur[0], cur[1], cur[2], cur[3])
        )
    return new_proposals
