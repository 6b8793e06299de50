"""RVR — structured rendezvous routing baseline (Scribe/Bayeux-equivalent).

Differences from Vitis, exactly the ones the paper names (section IV):

- the routing table is subscription-*oblivious*: predecessor + successor +
  ``rt_size - 2`` Symphony long links, no friend links;
- there is no clustering and no gateway election: **every subscriber**
  performs the lookup toward ``hash(topic)`` and grafts onto the topic's
  multicast tree (the Scribe JOIN), so the tree's leaves are single nodes;
- events travel only along the tree: the publisher routes to the tree (or
  is already on it, being a subscriber) and the event floods the tree.

Everything else — peer sampling, T-Man exchange, greedy routing, relay
tables, metrics — is shared with Vitis, which is what makes the traffic
comparison meaningful.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set, Tuple

from repro.core.protocol import VitisProtocol
from repro.sim.metrics import DisseminationRecord

__all__ = ["RvrProtocol"]


class RvrProtocol(VitisProtocol):
    """A complete RVR system.

    Implementation note: RVR is expressible as a restriction of the Vitis
    machinery — zero friend links (all non-ring slots are small-world
    links) and "every subscriber is its own gateway" — so the subclass
    overrides exactly those two behaviours plus the publisher rule.
    """

    name = "rvr"

    def __init__(self, subscriptions, config=None, **kwargs):
        from dataclasses import replace

        from repro.core.config import VitisConfig

        config = config or VitisConfig()
        # All non-ring routing-table slots become structural long links.
        config = replace(config, n_sw_links=config.rt_size - 2)
        kwargs.setdefault("election_every", 0)  # no gateway election in RVR
        super().__init__(subscriptions, config, **kwargs)

    # ------------------------------------------------------------------
    # Tree membership: every subscriber joins the tree itself.
    # ------------------------------------------------------------------
    def gateways_of(self, topic: int) -> List[int]:
        """In RVR each subscriber grafts its own path (Scribe JOIN)."""
        return sorted(self.subscribers(topic))

    def election_round(self) -> None:
        """RVR has no gateway election."""

    # ------------------------------------------------------------------
    # No clustering: events travel only along the tree.
    # ------------------------------------------------------------------
    def cluster_adjacency(self, topic: int) -> Dict[int, Set[int]]:
        return {}

    def publisher_targets(self, publisher: int, topic: int) -> Tuple[Set[int], List[int]]:
        """Scribe publishing: a publisher on the tree multicasts from its
        position; one off the tree routes the event to the rendezvous."""
        node = self.nodes[publisher]
        if node.relay.on_tree(topic):
            return set(node.relay.tree_neighbors(topic)), []
        # Off-tree publishers pay a rendezvous lookup per event — worth its
        # own counter because it is the traffic RVR's trees cannot avoid.
        if self.telemetry.enabled:
            self.telemetry.metrics.counter(
                "offtree_publishes_total", system=self.name
            ).inc()
        lr = self.lookup(publisher, self.topic_id(topic))
        if lr.success and len(lr.path) > 1:
            cap = self.capacity
            if cap is not None and cap.backpressured(lr.path[1], self.engine.now):
                # The rendezvous-bound first hop is saturated: defer the
                # injection to a later publish batch instead of piling
                # onto the hotspot — this is where RVR's dependence on a
                # single tree root shows up under load.  The hint lets a
                # traced run attribute the resulting misses to
                # backpressure rather than "no path".
                self.backpressure_deferred += 1
                from repro.obs.spans import CAUSE_BACKPRESSURE

                self._injection_miss_cause = CAUSE_BACKPRESSURE
                return set(), []
            return set(), lr.path
        return set(), []

