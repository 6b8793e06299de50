"""Ablation — navigability vs small-world link count, and management cost.

1. Symphony's routing claim (paper section III-A1): greedy lookup cost is
   O((1/k)·log²N) — more sw links, fewer hops — while the freed friend
   slots are what keep traffic overhead low: the Fig. 4 trade-off, probed
   directly at the lookup level.
2. The section II scalability argument: overlay-management cost per node
   is bounded for Vitis/RVR (routing-table size) but follows the
   heavy-tailed subscription distribution for unbounded OPT.
"""

from benchmarks.conftest import emit
from repro.experiments import run_sweep, scaled
from repro.experiments.scenarios import ablation_sw_spec, management_cost_spec


def test_ablation_sw_links(once):
    rows = once(run_sweep, ablation_sw_spec(
        n_nodes=scaled(300),
        n_topics=scaled(1000),
        seed=1,
    ))
    emit("Ablation — greedy-lookup cost vs #sw links (rt=15, random subs)", rows)
    by = {r["n_sw_links"]: r for r in rows}

    # More structural links → cheaper lookups.  The slope is shallow —
    # greedy routing exploits *all* links, and friend links double as
    # shortcuts — so the trend is asserted loosely per step and firmly
    # end-to-end.
    assert by[13]["mean_lookup_hops"] < by[1]["mean_lookup_hops"]
    hops = [by[k]["mean_lookup_hops"] for k in (1, 3, 7, 13)]
    assert all(a >= b - 0.5 for a, b in zip(hops, hops[1:]))
    # ...but at the price of traffic overhead (fewer friend links).
    assert by[13]["traffic_overhead_pct"] > by[1]["traffic_overhead_pct"]
    # Lookups stay consistent and within the theoretical yardstick.
    for r in rows:
        assert r["consistency_rate"] == 1.0
        assert r["mean_lookup_hops"] <= r["bound_log2N_over_k"] * 3


def test_management_cost(once):
    rows = once(run_sweep, management_cost_spec(
        n_users=scaled(4000),
        sample_size=scaled(400),
        seed=1,
    ))
    emit("Management cost per node, Twitter workload (section II argument)", rows)
    by = {r["system"]: r for r in rows}

    # Bounded-degree systems: max maintained links == the configured bound.
    assert by["vitis"]["max_links_per_node"] <= 15
    assert by["rvr"]["max_links_per_node"] <= 15
    assert by["opt-bounded"]["max_links_per_node"] <= 15
    # Unbounded OPT: the tail blows past any bound.
    assert by["opt-unbounded"]["max_links_per_node"] > 2 * 15
    # And its per-node message cost exceeds Vitis's.
    assert (
        by["opt-unbounded"]["per_node_msgs_per_cycle"]
        > by["opt-bounded"]["per_node_msgs_per_cycle"]
    )


def test_ablation_proximity(once):
    from repro.experiments.scenarios import ablation_proximity_spec

    rows = once(run_sweep, ablation_proximity_spec(
        n_nodes=scaled(300),
        n_topics=scaled(1000),
        seed=1,
    ))
    emit("Ablation — proximity-aware utility (section III-A2 extension)", rows)
    by = {r["beta"]: r for r in rows}

    # Moderate blending cuts the physical cost of dissemination...
    assert by[0.2]["mean_physical_cost"] < by[0.0]["mean_physical_cost"]
    # ...without giving up delivery.
    assert by[0.2]["hit_ratio"] >= 0.999
    # Heavy blending erodes interest clustering: overhead climbs.
    assert by[0.5]["traffic_overhead_pct"] >= by[0.0]["traffic_overhead_pct"]
