"""Structured small-world substrate.

- :mod:`repro.smallworld.ring` — the ground-truth ring over a population
  and the convergence check against it.  Vitis draws its Symphony
  harmonic long links (Manku et al., 2003) inline in
  :meth:`repro.core.node.VitisNode._select_neighbors`: O((1/k)·log²N)
  greedy routing with k long links per node.
- :mod:`repro.smallworld.routing` — greedy lookup over arbitrary routing
  tables; produces the relay paths of Vitis and the multicast trees of RVR.
"""

from repro.smallworld.ring import ring_edges, is_ring_converged
from repro.smallworld.routing import greedy_route, LookupResult

__all__ = [
    "LookupResult",
    "greedy_route",
    "is_ring_converged",
    "ring_edges",
]
