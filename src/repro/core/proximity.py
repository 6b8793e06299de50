"""Proximity-aware preference function — the paper's suggested extension.

Section III-A2: the preference function "can also be extended to account
for the underlying network topology and reduce the cost of data transfer
in the physical network."  The paper does not evaluate this; we implement
and measure it (the `test_ablation_proximity` bench).

The blended utility keeps Eq. 1 as the dominant signal and mixes in a
normalised closeness term::

    utility'(i, j) = (1 - beta) · eq1(i, j) + beta · closeness(i, j)
    closeness(i, j) = 1 - dist(i, j) / max_dist

With ``beta=0`` this is exactly Eq. 1; small betas (0.1–0.3) bias friend
selection toward physically close peers *among comparably similar ones*,
cutting the physical cost of intra-cluster flooding without breaking the
interest clustering that delivery depends on.  Large betas trade away
similarity and the traffic overhead rises — the trade-off the ablation
sweeps.

Physical cost accounting: give the protocol a ``link_cost`` attribute
(e.g. :meth:`repro.sim.latency.CoordinateLatency.cost`) and
:func:`repro.core.dissemination.disseminate` will accumulate
``record.physical_cost`` — the summed link cost of every message of the
event.
"""

from __future__ import annotations

from typing import Optional

from repro.core.profile import NodeProfile
from repro.core.utility import PublicationRates, UtilityFunction
from repro.sim.latency import CoordinateSpace

__all__ = ["ProximityUtility"]

_MAX_DIST = 2.0 ** 0.5  # unit-square diagonal


class ProximityUtility(UtilityFunction):
    """Eq. 1 blended with physical closeness.

    Parameters
    ----------
    coords:
        The coordinate space the closeness term reads.
    beta:
        Blend weight in [0, 1]; 0 reduces to plain Eq. 1.
    rates, rate_weighted:
        Forwarded to :class:`UtilityFunction`.
    """

    def __init__(
        self,
        coords: CoordinateSpace,
        beta: float = 0.2,
        rates: Optional[PublicationRates] = None,
        rate_weighted: bool = True,
    ) -> None:
        if not 0.0 <= beta <= 1.0:
            raise ValueError("beta must be in [0, 1]")
        super().__init__(rates, rate_weighted)
        self.coords = coords
        self.beta = beta

    def closeness(self, a: int, b: int) -> float:
        """1 at zero distance, 0 at the diagonal; 0.5 for unknown nodes."""
        if a in self.coords and b in self.coords:
            return 1.0 - self.coords.distance(a, b) / _MAX_DIST
        return 0.5

    def __call__(self, a: NodeProfile, b: NodeProfile) -> float:
        base = super().__call__(a, b)
        if self.beta == 0.0 or a.address == b.address:
            return base
        return (1.0 - self.beta) * base + self.beta * self.closeness(
            a.address, b.address
        )
