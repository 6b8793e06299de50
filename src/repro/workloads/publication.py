"""Publication-rate models (paper section IV-D, Fig. 7).

The paper sweeps a power-law event-rate distribution with exponent
α ∈ [0.3, 3]: near 0.3 the rates are almost uniform; at 3 nearly all
events land on one hot topic.  Rates feed two places:

- the Eq. 1 utility (hot shared topics pull nodes together harder);
- event generation during measurement: topics are published on in
  proportion to their rate, which is why hot-topic efficiency dominates
  the averages.
"""

from __future__ import annotations

from typing import List, Optional

import numpy as np

from repro.core.utility import PublicationRates

__all__ = ["power_law_rates", "sample_topics"]


def power_law_rates(
    n_topics: int,
    alpha: float,
    seed: Optional[int] = None,
    normalize: bool = True,
) -> PublicationRates:
    """Zipf-like rates: the r-th hottest topic has rate ∝ r^(-α).

    Which topic gets which rank is a uniform permutation when ``seed`` is
    given (topic id should not correlate with popularity), else rank =
    topic id.  With ``normalize`` the rates sum to ``n_topics`` so the
    average per-topic rate stays 1 across α — the Fig. 7 sweep then
    varies only the *skew*.
    """
    if n_topics < 1:
        raise ValueError("need at least one topic")
    if alpha < 0:
        raise ValueError("alpha must be >= 0")
    ranks = np.arange(1, n_topics + 1, dtype=float)
    rates = ranks ** (-alpha)
    if normalize:
        rates *= n_topics / rates.sum()
    if seed is not None:
        rng = np.random.default_rng(seed)
        rates = rates[rng.permutation(n_topics)]
    return PublicationRates(rates)


def sample_topics(rates: PublicationRates, n: int, rng, restrict=None) -> List[int]:
    """Draw ``n`` topics to publish on, proportionally to their rates.

    ``restrict`` optionally limits the draw to a subset of topics (e.g.
    topics that have at least one subscriber), renormalising over it.
    """
    r = rates.rates
    if restrict is not None:
        topics = np.fromiter(restrict, dtype=int)
        weights = r[topics]
    else:
        topics = np.arange(len(r))
        weights = r
    total = weights.sum()
    if total <= 0:
        raise ValueError("all candidate topics have zero rate")
    p = weights / total
    return [int(t) for t in rng.choice(topics, size=n, p=p)]
