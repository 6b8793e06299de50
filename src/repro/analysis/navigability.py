"""Navigability analysis of the constructed overlay.

Vitis's rendezvous routing rests on the small-world navigability result
(Kleinberg 2000, Symphony 2003): with ``k`` harmonic long links per node,
greedy routing takes ``O((1/k)·log² N)`` hops.  These helpers measure the
realized routing performance of a built overlay:

- :func:`routing_probe` — sample random (source, target-id) lookups and
  report success rate and hop statistics;
- :func:`expected_bound` — the ``log² N`` yardstick against which the
  measurements are judged (paper section III-A1).

Used by the navigability ablation bench (sweeping ``n_sw_links``) and by
integration tests.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List

import numpy as np

__all__ = ["RoutingProbe", "routing_probe", "expected_bound"]


@dataclass
class RoutingProbe:
    """Outcome of a batch of random greedy lookups."""

    samples: int
    successes: int
    exact_rendezvous: int
    hops: List[int]

    @property
    def consistency_rate(self) -> float:
        """Fraction of lookups ending at the true global rendezvous."""
        return self.exact_rendezvous / self.samples if self.samples else 1.0

    @property
    def mean_hops(self) -> float:
        return float(np.mean(self.hops)) if self.hops else 0.0

    @property
    def p95_hops(self) -> float:
        return float(np.percentile(self.hops, 95)) if self.hops else 0.0


def expected_bound(n_live: int, n_sw_links: int = 1) -> float:
    """The Symphony bound O((1/k)·log² N) with unit constant.

    ``k`` counts all structural links (ring + long), as in the paper's
    discussion of the routing-cost/overhead trade-off.
    """
    n = max(2, n_live)
    k = max(1, n_sw_links + 2)
    return (math.log2(n) ** 2) / k


def routing_probe(protocol, n_samples: int = 200, seed: int = 0) -> RoutingProbe:
    """Run ``n_samples`` random lookups over the live overlay.

    Sources are uniform live nodes; targets are uniform points of the id
    space (the hardest case — real lookups target topic hashes, which are
    the same distribution).
    """
    rng = np.random.default_rng(seed)
    live = protocol.live_addresses()
    if not live:
        return RoutingProbe(0, 0, 0, [])
    space = protocol.space
    ids = {a: protocol.nodes[a].node_id for a in live}

    successes = exact = 0
    hops: List[int] = []
    for _ in range(n_samples):
        start = live[int(rng.integers(len(live)))]
        # The id space may be 2**64, beyond int64; draw in two halves.
        target = (int(rng.integers(1 << 32)) << 32 | int(rng.integers(1 << 32))) % space.size
        result = protocol.lookup(start, target)
        if result.success:
            successes += 1
            hops.append(result.hops)
            truth = min(live, key=lambda a: (space.distance(ids[a], target), a))
            if result.rendezvous == truth:
                exact += 1
    return RoutingProbe(n_samples, successes, exact, hops)
