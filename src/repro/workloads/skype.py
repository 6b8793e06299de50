"""Synthetic Skype-superpeer-like churn trace (Fig. 12 substitute).

The paper replays the Guha et al. (IPTPS'06) measurement of 4000 Skype
superpeers over one month.  The observable features its experiment depends
on — and which this generator reproduces — are:

- a stable population core with continuous moderate churn (the published
  measurement found superpeer sessions to be heavy-tailed, median around
  5.5 hours, with strong diurnal modulation);
- occasional *flash crowds*: a large batch of nodes joining nearly
  simultaneously, which is the event that dents RVR's hit ratio in
  Fig. 12(a).

Time is measured in *hours* to match the paper's x-axis (0…1400 h ≈ one
month plus margin); the experiment harness maps hours to gossip cycles.
"""

from __future__ import annotations

import random
from typing import List, Optional, Tuple

from repro.sim.churn import ChurnSchedule

__all__ = ["SkypeTrace"]


class SkypeTrace:
    """A synthetic one-month superpeer session trace.

    Parameters
    ----------
    n_nodes:
        Size of the node pool (paper: 4000; scaled runs use less).
    horizon:
        Trace length in hours (paper plot: ~1400).
    median_session:
        Median online duration in hours (measurement: ≈5.5 h for
        superpeers; the default keeps the published order of magnitude).
    median_offtime:
        Median offline duration in hours.
    sigma:
        Log-normal shape for both distributions (heavy tail).
    diurnal_amplitude:
        0…1 modulation of join probability over a 24 h period.
    flash_crowd_at:
        Hour of the injected flash crowd (None disables it).
    flash_crowd_fraction:
        Fraction of the pool joining in the crowd.
    initial_online_fraction:
        Fraction of the pool online at t=0 (their joins are stamped t=0).
    """

    def __init__(
        self,
        n_nodes: int = 4000,
        horizon: float = 1400.0,
        median_session: float = 5.5,
        median_offtime: float = 12.0,
        sigma: float = 1.2,
        diurnal_amplitude: float = 0.4,
        flash_crowd_at: Optional[float] = 800.0,
        flash_crowd_fraction: float = 0.3,
        initial_online_fraction: float = 0.5,
        seed: int = 0,
    ) -> None:
        if n_nodes < 1 or horizon <= 0:
            raise ValueError("need n_nodes >= 1 and horizon > 0")
        if not 0 <= flash_crowd_fraction <= 1:
            raise ValueError("flash_crowd_fraction must be in [0, 1]")
        self.n_nodes = n_nodes
        self.horizon = horizon
        self.median_session = median_session
        self.median_offtime = median_offtime
        self.sigma = sigma
        self.diurnal_amplitude = diurnal_amplitude
        self.flash_crowd_at = flash_crowd_at
        self.flash_crowd_fraction = flash_crowd_fraction
        self.initial_online_fraction = initial_online_fraction
        self.seed = seed
        self.sessions: List[Tuple[int, float, float]] = []
        self._generate()

    # ------------------------------------------------------------------
    def _lognormal(self, rng: random.Random, median: float) -> float:
        return rng.lognormvariate(_ln(median), self.sigma)

    def _diurnal_stretch(self, t: float, rng: random.Random) -> float:
        """Stretch an off-time when it would end at a low-activity hour:
        rejection-style thinning of joins against the diurnal wave."""
        if self.diurnal_amplitude <= 0:
            return 0.0
        import math

        extra = 0.0
        for _ in range(48):  # bounded retries
            phase = math.sin(2 * math.pi * ((t + extra) % 24.0) / 24.0)
            accept_p = 1.0 - self.diurnal_amplitude * 0.5 * (1.0 - phase)
            if rng.random() < accept_p:
                return extra
            extra += 1.0
        return extra

    def _generate(self) -> None:
        rng = random.Random(("skype", self.seed, self.n_nodes).__repr__())
        sessions: List[Tuple[int, float, float]] = []

        n_crowd = (
            int(self.n_nodes * self.flash_crowd_fraction)
            if self.flash_crowd_at is not None
            else 0
        )
        crowd_nodes = set(range(self.n_nodes - n_crowd, self.n_nodes))

        for node in range(self.n_nodes):
            first = True
            if node in crowd_nodes:
                # Flash-crowd nodes first appear together at the crowd hour
                # (within a couple of minutes of one another).
                t = self.flash_crowd_at + rng.uniform(0.0, 0.05)
            elif rng.random() < self.initial_online_fraction:
                t = 0.0
            else:
                t = self._lognormal(rng, self.median_offtime)
            while t < self.horizon:
                median = self.median_session
                if first and node in crowd_nodes:
                    # Crowd arrivals came for something: their first
                    # session is long, so the population spike persists
                    # (the shape Fig. 12's network-size curve shows).
                    median *= 8.0
                first = False
                duration = max(0.1, self._lognormal(rng, median))
                end = min(t + duration, self.horizon)
                if end > t:
                    sessions.append((node, t, end))
                t = end + max(0.1, self._lognormal(rng, self.median_offtime))
                t += self._diurnal_stretch(t, rng)
        sessions.sort(key=lambda s: s[1])
        self.sessions = sessions

    # ------------------------------------------------------------------
    def schedule(self, time_scale: float = 1.0) -> ChurnSchedule:
        """As a :class:`~repro.sim.churn.ChurnSchedule`; ``time_scale``
        maps hours to simulated seconds (= gossip cycles by default)."""
        scaled = [(n, s * time_scale, e * time_scale) for n, s, e in self.sessions]
        return ChurnSchedule.from_sessions(scaled)


def _ln(x: float) -> float:
    import math

    return math.log(x)
