"""The preference function — paper Eq. 1.

::

    utility(i, j) =  Σ_{t ∈ subs(i) ∩ subs(j)} rate(t)
                     ─────────────────────────────────
                     Σ_{t ∈ subs(i) ∪ subs(j)} rate(t)

With uniform rates this reduces to the Jaccard similarity of the
subscription sets — the worked example in the paper (p={A,B,C}, q={C,D},
r={C,D,E,F,G,H} giving 0.25 / 0.125 / 0.33) is a doctest below.

The union sum is computed as ``sum(i) + sum(j) - intersection`` so only the
intersection needs a set walk, over the smaller set.  The rates never
change once built, so they are read from a Python float list made once;
every sum adds left to right with ``+=`` (builtin ``sum()`` of floats is
compensated on Python 3.12+ and would change the last bits).  Per-node
sums are cached per profile version.

:meth:`UtilityFunction.evaluate` is Eq. 1 uncached: a Vitis node keeps
its own per-node memo of it (``VitisNode._umemo``).  Calling the
function (``__call__``) adds a pairwise cache keyed by both profile
versions, for OPT (:mod:`repro.baselines.opt`), which ranks without a
memo.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.core.profile import NodeProfile

__all__ = ["PublicationRates", "UtilityFunction"]


class PublicationRates:
    """Per-topic publication rates ``rate(t)``.

    ``None``-like uniform rates are represented by :meth:`uniform`; skewed
    rates (Fig. 7) by :meth:`power_law` in
    :mod:`repro.workloads.publication` (which constructs instances of this
    class).
    """

    __slots__ = ("rates",)

    def __init__(self, rates: np.ndarray) -> None:
        self.rates = self._checked(rates)

    @staticmethod
    def _checked(rates: np.ndarray) -> np.ndarray:
        """``rates`` as a float array, refused unless 1-D, finite and
        non-negative — what keeps Eq. 1 ≥ 0."""
        rates = np.asarray(rates, dtype=float)
        if rates.ndim != 1:
            raise ValueError("rates must be a 1-D array indexed by topic id")
        if not np.all(np.isfinite(rates)):
            raise ValueError("rates must be finite")
        if np.any(rates < 0):
            raise ValueError("rates must be non-negative")
        return rates

    @classmethod
    def uniform(cls, n_topics: int, rate: float = 1.0) -> "PublicationRates":
        """Every topic publishes at the same rate."""
        return cls(np.full(n_topics, rate))

    @property
    def n_topics(self) -> int:
        return len(self.rates)


class UtilityFunction:
    """Cached evaluator of Eq. 1.

    Parameters
    ----------
    rates:
        Publication-rate table, or None for uniform rates (pure Jaccard).
    rate_weighted:
        When False, ignore rates even if provided — the ablation knob.

    Examples
    --------
    The paper's worked example:

    >>> from repro.core.profile import NodeProfile
    >>> A, B, C, D, E, F, G, H = range(8)
    >>> p = NodeProfile(0, 0, {A, B, C})
    >>> q = NodeProfile(1, 1, {C, D})
    >>> r = NodeProfile(2, 2, {C, D, E, F, G, H})
    >>> u = UtilityFunction()
    >>> round(u(p, q), 3), round(u(p, r), 3), round(u(q, r), 3)
    (0.25, 0.125, 0.333)
    """

    #: Bound on each cache; on overflow the cache is cleared (simple and
    #: allocation-free, adequate since re-computation is cheap and hit
    #: patterns are bursty within a cycle).
    MAX_CACHE = 2_000_000

    def __init__(
        self,
        rates: Optional[PublicationRates] = None,
        rate_weighted: bool = True,
    ) -> None:
        #: ``rate(t)`` as Python floats, or None for pure Jaccard.
        self._rates: Optional[List[float]] = (
            rates.rates.tolist() if rate_weighted and rates is not None else None
        )
        self._pair_cache: Dict[Tuple, float] = {}
        self._sum_cache: Dict[Tuple[int, int], float] = {}

    # ------------------------------------------------------------------
    def _node_sum(self, profile: NodeProfile) -> float:
        """Σ rate(t) over the node's subscriptions, cached per profile
        version."""
        key = (profile.address, profile.version)
        val = self._sum_cache.get(key)
        if val is None:
            rates = self._rates
            val = 0.0
            for t in profile.subscriptions:
                val += rates[t]
            if len(self._sum_cache) >= self.MAX_CACHE:
                self._sum_cache.clear()
            self._sum_cache[key] = val
        return val

    def evaluate(self, a: NodeProfile, b: NodeProfile) -> float:
        """Eq. 1 for two distinct nodes, computed afresh; 0 when both
        sets are empty."""
        sa, sb = a.subscriptions, b.subscriptions
        if len(sa) > len(sb):
            sa, sb = sb, sa  # walk the smaller set
        rates = self._rates
        if rates is None:
            inter = len(sa & sb)
            union = len(sa) + len(sb) - inter
            return inter / union if union else 0.0
        inter_sum = 0.0
        for t in sa:
            if t in sb:
                inter_sum += rates[t]
        union_sum = self._node_sum(a) + self._node_sum(b) - inter_sum
        return inter_sum / union_sum if union_sum > 0 else 0.0

    def __call__(self, a: NodeProfile, b: NodeProfile) -> float:
        """Eq. 1 for the pair (a, b), cached; symmetric; 1 for a node
        with itself."""
        if a.address == b.address:
            return 1.0
        # Symmetric cache key; versions make stale entries unreachable.
        if a.address < b.address:
            key = (a.address, a.version, b.address, b.version)
        else:
            key = (b.address, b.version, a.address, a.version)
        cached = self._pair_cache.get(key)
        if cached is not None:
            return cached
        val = self.evaluate(a, b)
        if len(self._pair_cache) >= self.MAX_CACHE:
            self._pair_cache.clear()
        self._pair_cache[key] = val
        return val
