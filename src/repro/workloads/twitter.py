"""Synthetic Twitter-like follower graph (Figs. 8–11 substitute).

The paper's Twitter experiments use the Galuba et al. WOSN'10 trace of
~2.4 M users, characterised in the paper only through Figs. 8–9: both the
in-degree (followers) and out-degree (followees) distributions are
power laws with a fitted exponent of ≈1.65.  That trace is not
redistributable, so — per the substitution rule — we generate a directed
graph matching those statistics and run the paper's own BFS-sampling
pipeline on it:

- out-degrees (how many users a node follows) are drawn from a discrete
  power law with exponent ``alpha``;
- followees are chosen with probability proportional to hidden
  attractiveness weights, themselves power-law distributed, which yields a
  power-law in-degree distribution with the same tail exponent (the
  standard hidden-variable construction);
- sampling follows section IV-E: random seed users, plus everyone they
  follow, plus all relations among the sample, dropping subscriptions that
  leave the sample.

In the pub/sub mapping each user is simultaneously a *node* and a *topic*:
following user ``u`` = subscribing to topic ``u``; user ``u`` publishes on
its own topic.

Storage is one CSR pair: ``u`` follows ``indices[indptr[u]:indptr[u + 1]]``
(``int32`` ids at ``int64`` offsets), each row in its draw's set order.
"""

from __future__ import annotations

import math
import random
from array import array
from collections import Counter, deque
from typing import Dict, List, Optional, Sequence, Set

import numpy as np

__all__ = ["TwitterTrace", "powerlaw_mle"]


def _stable_seed(*parts) -> int:
    """A process-stable 32-bit seed from arbitrary parts (Python's str
    hash is salted per process, so it must not be used for seeding)."""
    h = 2166136261
    for byte in repr(parts).encode("utf-8"):
        h = ((h ^ byte) * 16777619) & 0xFFFFFFFF
    return h


def powerlaw_mle(samples: Sequence[int], xmin: int = 1) -> float:
    """Clauset-style continuous MLE of a power-law tail exponent.

    ``alpha = 1 + n / Σ ln(x / (xmin - 0.5))`` over samples ≥ xmin.
    Good enough to verify the generated graph matches the paper's 1.65
    fit; returns ``nan`` when there are no qualifying samples.
    """
    xs = [x for x in samples if x >= xmin]
    if not xs:
        return float("nan")
    denom = sum(math.log(x / (xmin - 0.5)) for x in xs)
    if denom <= 0:
        return float("nan")
    return 1.0 + len(xs) / denom


class TwitterTrace:
    """A directed follower graph plus the paper's sampling pipeline.

    Parameters
    ----------
    n_users:
        Number of users in the full synthetic trace.
    alpha:
        Target power-law exponent for both degree distributions
        (paper fit: 1.65).
    min_out:
        Lower cut-off (``xmin``) of the out-degree power law.  The paper's
        sample averages ~80 subscriptions per node; a heavy-tailed law
        needs a non-trivial floor to reach that mean — the default
        reproduces the paper's order of magnitude at sample scale.
    max_out:
        Cap on how many accounts one user follows (keeps the scaled-down
        graph from collapsing onto a clique); defaults to ``n_users // 4``.
    max_weight_ratio:
        Cap on the attractiveness weights, expressed as a multiple of the
        median weight; bounds the most popular user's expected in-degree
        so a small synthetic graph does not degenerate into a star.
    seed:
        Generator seed.
    """

    def __init__(
        self,
        n_users: int,
        alpha: float = 1.65,
        min_out: int = 8,
        max_out: Optional[int] = None,
        max_weight_ratio: float = 500.0,
        seed: int = 0,
    ) -> None:
        if n_users < 2:
            raise ValueError("need at least two users")
        if alpha <= 1.0:
            raise ValueError("power-law exponent must exceed 1")
        if min_out < 1:
            raise ValueError("min_out must be >= 1")
        self.n_users = n_users
        self.alpha = alpha
        self.seed = seed
        self.min_out = min_out
        self.max_out = max_out if max_out is not None else max(min_out, n_users // 4)
        self.max_weight_ratio = max_weight_ratio
        self._generate()

    # ------------------------------------------------------------------
    # Generation
    # ------------------------------------------------------------------
    def _power_law_integers(self, rng: np.random.Generator, n: int) -> np.ndarray:
        """n draws from a discrete power law P(k) ∝ k^-alpha, k >= min_out,
        via inverse-CDF of the continuous Pareto, floored."""
        u = rng.random(n)
        xs = self.min_out * (1.0 - u) ** (-1.0 / (self.alpha - 1.0))
        return np.minimum(np.floor(xs).astype(int), self.max_out)

    def _generate(self) -> None:
        seed32 = _stable_seed("twitter", self.seed, self.n_users)
        rng = np.random.default_rng(seed32)
        n = self.n_users
        out_deg = np.maximum(self.min_out, self._power_law_integers(rng, n))
        # Hidden attractiveness weights: same tail, so in-degree (which is
        # proportional to weight) inherits the power law.  Cap the tail so
        # a small graph does not degenerate into a star.
        weights = (1.0 - rng.random(n)) ** (-1.0 / (self.alpha - 1.0))
        cap = float(np.median(weights)) * self.max_weight_ratio
        weights = np.minimum(weights, cap)
        # rng.choice(n, size, p=p)'s own algorithm, its CDF built once.
        cdf = np.cumsum(weights / weights.sum())
        cdf /= cdf[-1]
        self.indptr = np.zeros(n + 1, dtype=np.int64)
        indices = array("i")
        for u in range(n):
            # Oversample to absorb self-follows and duplicates, then trim.
            want = min(int(out_deg[u]), n - 1)
            chosen: Set[int] = set()
            attempts = 0
            while len(chosen) < want and attempts < 6:
                draw = rng.random(min(n, 2 * (want - len(chosen)) + 4))
                for v in cdf.searchsorted(draw, side="right").tolist():
                    if v != u:
                        chosen.add(v)
                        if len(chosen) >= want:
                            break
                attempts += 1
            indices.extend(chosen)  # set order: bfs_sample may stop mid-row
            self.indptr[u + 1] = len(indices)
        self.indices = np.frombuffer(indices, dtype=np.intc)

    # ------------------------------------------------------------------
    # Views
    # ------------------------------------------------------------------
    def followees(self, u: int) -> List[int]:
        """The users ``u`` follows, in generation order."""
        return self.indices[self.indptr[u]:self.indptr[u + 1]].tolist()

    @property
    def n_relations(self) -> int:
        return int(self.indptr[-1])

    def out_degrees(self) -> List[int]:
        return np.diff(self.indptr).tolist()

    def in_degrees(self) -> List[int]:
        return np.bincount(self.indices, minlength=self.n_users).tolist()

    def summary(self) -> Dict[str, float]:
        """The Fig. 9-style statistics table of the synthetic trace."""
        ins = self.in_degrees()
        outs = self.out_degrees()
        return {
            "users": float(self.n_users),
            "relations": float(self.n_relations),
            "mean_in_degree": float(np.mean(ins)),
            "max_in_degree": float(max(ins)),
            "mean_out_degree": float(np.mean(outs)),
            "max_out_degree": float(max(outs)),
            # Fit above the generator's cut-off, as power-law fitting
            # requires (Clauset et al.): below min_out the law is flat.
            "alpha_in": powerlaw_mle(ins, xmin=self.min_out),
            "alpha_out": powerlaw_mle(outs, xmin=self.min_out),
        }

    def degree_histogram(self, kind: str = "in") -> Dict[int, int]:
        """degree → frequency (the Fig. 8 log-log series)."""
        degs = self.in_degrees() if kind == "in" else self.out_degrees()
        return dict(sorted(Counter(degs).items()))

    # ------------------------------------------------------------------
    # Section IV-E sampling pipeline
    # ------------------------------------------------------------------
    def bfs_sample(self, target_size: int, seed: int = 0) -> "TwitterSample":
        """Sample ≈``target_size`` users as the paper does.

        Random seed users are added together with everyone they follow
        (one BFS level per seed, repeated over random seeds until the
        target is reached); then all relations among sampled users are
        kept and subscriptions to users outside the sample are dropped.
        """
        rng = random.Random(("twitter-sample", self.seed, seed).__repr__())
        order = list(range(self.n_users))
        rng.shuffle(order)
        sample: Set[int] = set()
        queue = deque(order)
        while queue and len(sample) < target_size:
            u = queue.popleft()
            sample.add(u)
            for v in self.followees(u):
                if len(sample) >= target_size:
                    break
                sample.add(v)
        return TwitterSample(self, sorted(sample))


class TwitterSample:
    """An induced subgraph of a :class:`TwitterTrace`, re-indexed densely.

    ``subscriptions()[i]`` is the topic set of node ``i``: the (dense ids
    of the) users node ``i`` follows inside the sample.  Topic ``j`` is
    published by node ``j``.
    """

    def __init__(self, trace: TwitterTrace, users: List[int]) -> None:
        self.trace = trace
        self.users = users
        self.index = {u: i for i, u in enumerate(users)}
        self.following: List[frozenset] = [
            frozenset(self.index[v] for v in trace.followees(u) if v in self.index)
            for u in users
        ]

    @property
    def n_nodes(self) -> int:
        return len(self.users)

    def subscriptions(self) -> List[frozenset]:
        """Per-node topic sets (topic id = dense node id of the followee)."""
        return list(self.following)

    def in_degrees(self) -> List[int]:
        counts = [0] * len(self.users)
        for subs in self.following:
            for v in subs:
                counts[v] += 1
        return counts

    def summary(self) -> Dict[str, float]:
        ins = self.in_degrees()
        outs = [len(s) for s in self.following]
        return {
            "users": float(self.n_nodes),
            "relations": float(sum(outs)),
            "mean_in_degree": float(np.mean(ins)) if ins else 0.0,
            "mean_out_degree": float(np.mean(outs)) if outs else 0.0,
            "alpha_in": powerlaw_mle(ins, xmin=self.trace.min_out),
            "alpha_out": powerlaw_mle(outs, xmin=self.trace.min_out),
        }
