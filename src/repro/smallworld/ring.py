"""Ring maintenance helpers.

Vitis dedicates two routing-table entries to the ring (predecessor and
successor, Alg. 4 lines 2–7).  The ring provides *lookup consistency*:
greedy routing over a correct ring always terminates at the live node whose
id is the rendezvous for the target — the property relay-path construction
depends on (paper section III-A1).

Vitis picks its ring links off a sorted ring index
(``core/node.py``); these helpers are the ground truth they converge to.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

__all__ = ["ring_edges", "is_ring_converged"]


def ring_edges(ids_by_address: Dict[int, int]) -> List[Tuple[int, int]]:
    """The ground-truth ring over a population: edges (addr, succ_addr)
    ordered by id.  Used to validate convergence in tests."""
    ordered = sorted(ids_by_address.items(), key=lambda kv: kv[1])
    n = len(ordered)
    return [(ordered[i][0], ordered[(i + 1) % n][0]) for i in range(n)]


def is_ring_converged(
    ids_by_address: Dict[int, int],
    successor_of: Dict[int, Optional[int]],
) -> bool:
    """True iff every node's successor pointer matches the true ring.

    ``successor_of`` maps address → successor address (None counts as
    wrong unless the population has a single node).
    """
    if len(ids_by_address) <= 1:
        return True
    truth = dict(ring_edges(ids_by_address))
    for addr, true_succ in truth.items():
        if successor_of.get(addr) != true_succ:
            return False
    return True
