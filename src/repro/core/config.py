"""Vitis protocol parameters.

Defaults are the paper's (section IV-A): routing table of 15 entries, of
which two are ring links (predecessor + successor), one is a Symphony-style
small-world long link, and the remainder are similarity ("friend") links;
gateway depth threshold ``d = 5``.

The paper's parameter ``k`` counts *structural* links (ring + long links).
Here the split is expressed directly: ``n_sw_links`` long links on top of
the always-present two ring links, so ``k = 2 + n_sw_links`` and
``n_friends = rt_size - k``.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

__all__ = ["VitisConfig"]


@dataclass(frozen=True)
class VitisConfig:
    """All tunables of a Vitis deployment.

    Attributes
    ----------
    rt_size:
        Bound on the routing table (node degree), paper default 15.
    n_sw_links:
        Number of Symphony long links (excluding the two ring links).
        Paper section IV-B settles on 1; Fig. 4 sweeps the friend/sw split.
    gateway_depth:
        ``d`` — a gateway serves cluster members at most ``d`` hops away
        (Alg. 5 line 10); bounds intra-cluster delay.  Paper default 5.
    gossip_period:
        Simulated seconds per gossip cycle (the paper's ``δt``); 1 s maps
        the paper's "10 seconds after join" rule to 10 cycles.
    rate_weighted_utility:
        Use the paper's Eq. 1 (publication-rate-weighted similarity).
        When False, plain Jaccard over subscription sets — the ablation
        called out in DESIGN.md.

    The parameters the paper's evaluation never varies are class
    constants, read through the instance so a test can substitute a
    subclass.
    """

    #: Heartbeat ages after which a silent neighbor is evicted from the
    #: routing table (Alg. 6 line 4).
    STALENESS_THRESHOLD = 5
    #: Partial-view size of the peer sampling service.
    PEER_VIEW_SIZE = 20
    #: Fresh random descriptors pulled into each T-Man exchange (Alg. 2
    #: line 3).
    SAMPLE_SIZE = 10
    #: Safety bound on greedy lookups.
    MAX_LOOKUP_HOPS = 256

    rt_size: int = 15
    n_sw_links: int = 1
    gateway_depth: int = 5
    gossip_period: float = 1.0
    rate_weighted_utility: bool = True

    def __post_init__(self) -> None:
        if self.rt_size < 3:
            raise ValueError("rt_size must be >= 3 (two ring links + one more)")
        if self.n_sw_links < 0:
            raise ValueError("n_sw_links must be >= 0")
        if self.n_sw_links > self.rt_size - 2:
            raise ValueError(
                f"n_sw_links={self.n_sw_links} leaves no room: "
                f"rt_size={self.rt_size} minus 2 ring links"
            )
        if self.gateway_depth < 1:
            raise ValueError("gateway_depth must be >= 1")
        if not self.gossip_period > 0:  # refuses NaN too
            raise ValueError("gossip_period must be positive")

    def with_friends(self, n_friends: int) -> "VitisConfig":
        """A copy with the friend/sw split changed at fixed ``rt_size``
        (the Fig. 4 sweep knob)."""
        n_sw = self.rt_size - 2 - n_friends
        if n_sw < 0:
            raise ValueError(f"cannot fit {n_friends} friends in rt_size={self.rt_size}")
        return replace(self, n_sw_links=n_sw)

    def with_rt_size(self, rt_size: int) -> "VitisConfig":
        """A copy with a different routing-table size, keeping the
        section IV-B link split (1 sw link, rest friends) — the Fig. 6
        sweep knob."""
        return replace(self, rt_size=rt_size)
