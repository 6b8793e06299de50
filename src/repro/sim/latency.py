"""Topology-aware latency models.

:mod:`repro.sim.network` ships constant and uniform-random delays; this
module adds a geographic model: nodes get coordinates in a 2-D unit
square (a stand-in for network coordinate systems à la Vivaldi), and the
one-way delay between two nodes is proportional to their Euclidean
distance plus a base cost and optional jitter.

This is the substrate for the paper's suggested extension of the
preference function "to account for the underlying network topology and
reduce the cost of data transfer in the physical network"
(section III-A2) — see :mod:`repro.core.proximity`.
"""

from __future__ import annotations

import math
from typing import Dict, Optional, Sequence, Tuple

from repro.sim.network import LatencyModel

__all__ = ["CoordinateSpace", "CoordinateLatency"]


class CoordinateSpace:
    """2-D coordinates for a node population.

    Coordinates are drawn uniformly in the unit square; distances are
    Euclidean.  Deterministic given the rng.
    """

    def __init__(self, coords: Dict[int, Tuple[float, float]]) -> None:
        self._coords = dict(coords)

    @classmethod
    def clustered(
        cls, addresses: Sequence[int], rng, n_sites: int = 5, spread: float = 0.05
    ) -> "CoordinateSpace":
        """Nodes concentrated around a few sites (data centers / regions):
        the setting where proximity-aware selection pays off most."""
        if n_sites < 1:
            raise ValueError("need at least one site")
        sites = [(rng.random(), rng.random()) for _ in range(n_sites)]
        coords = {}
        for a in addresses:
            sx, sy = sites[rng.randrange(n_sites)]
            coords[a] = (
                min(1.0, max(0.0, sx + rng.gauss(0.0, spread))),
                min(1.0, max(0.0, sy + rng.gauss(0.0, spread))),
            )
        return cls(coords)

    def __contains__(self, address: int) -> bool:
        return address in self._coords

    def __len__(self) -> int:
        return len(self._coords)

    def distance(self, a: int, b: int) -> float:
        """Euclidean distance in the unit square (max √2)."""
        ax, ay = self._coords[a]
        bx, by = self._coords[b]
        return math.hypot(ax - bx, ay - by)


class CoordinateLatency(LatencyModel):
    """Delay = base + distance · ms_per_unit (+ optional jitter).

    With the defaults, two co-located nodes see ~5 ms and opposite
    corners of the square ~5 + 141 ms — a continental-WAN spread.
    """

    def __init__(
        self,
        space: CoordinateSpace,
        base: float = 0.005,
        ms_per_unit: float = 0.1,
        jitter: float = 0.0,
        rng=None,
    ) -> None:
        if base < 0 or ms_per_unit < 0 or jitter < 0:
            raise ValueError("latency parameters must be non-negative")
        if jitter > 0 and rng is None:
            raise ValueError("jitter requires an rng")
        self.space = space
        self.base = base
        self.ms_per_unit = ms_per_unit
        self.jitter = jitter
        self._rng = rng

    def delay(self, src: int, dst: int) -> float:
        d = self.base
        if src in self.space and dst in self.space:
            d += self.space.distance(src, dst) * self.ms_per_unit
        if self.jitter > 0:
            d += self._rng.uniform(0.0, self.jitter)
        return d

    def cost(self, src: int, dst: int) -> float:
        """Deterministic link cost (no jitter) — what the proximity-aware
        utility and the physical-cost metric consume."""
        if src in self.space and dst in self.space:
            return self.base + self.space.distance(src, dst) * self.ms_per_unit
        return self.base
