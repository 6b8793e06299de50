"""Fig. 5 — distribution of traffic overhead over nodes.

Paper shape: Vitis concentrates nodes in the lowest-overhead bin and
empties the >20% bins to under a third of RVR's share — the average drops
*and* the load spreads more evenly.
"""

from benchmarks.conftest import emit
from repro.experiments import run_sweep, scaled
from repro.experiments.scenarios import fig5_spec


def share_above(rows, system, pattern, threshold):
    return sum(
        r["fraction_of_nodes"]
        for r in rows
        if r["system"] == system and r["pattern"] == pattern and r["bin_lo"] >= threshold
    )


def test_fig5_overhead_distribution(once):
    rows = once(run_sweep, fig5_spec(
        n_nodes=scaled(300),
        n_topics=scaled(1000),
        seed=1,
    ))
    emit("Fig. 5 — fraction of nodes per traffic-overhead bin", rows)

    # Vitis puts more nodes in the lowest bin than RVR...
    def lowest(system, pattern):
        return next(
            r["fraction_of_nodes"]
            for r in rows
            if r["system"] == system and r["pattern"] == pattern and r["bin_lo"] == 0.0
        )

    assert lowest("vitis", "high") > lowest("rvr", "high")
    # ...and the share of heavily loaded nodes (>20%) collapses to less
    # than a third of RVR's (the paper's headline reading of Fig. 5).
    assert share_above(rows, "vitis", "high", 20) < (1 / 3) * share_above(
        rows, "rvr", "high", 20
    )
    # Same orderings on the random pattern, where the gap is narrower.
    assert share_above(rows, "vitis", "random", 20) < share_above(
        rows, "rvr", "random", 20
    )
