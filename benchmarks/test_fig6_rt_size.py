"""Fig. 6 — overhead & delay vs routing-table size.

Paper shape: both metrics fall as tables grow in both systems; Vitis's
extra slots become friends (fewer relay paths), RVR's become small-world
links (shorter lookups); Vitis stays below RVR throughout.
"""

from benchmarks.conftest import emit
from repro.experiments import run_sweep, scaled
from repro.experiments.scenarios import fig6_spec

RT_SIZES = (15, 25, 35)


def test_fig6_routing_table_size(once):
    rows = once(run_sweep, fig6_spec(
        n_nodes=scaled(300),
        n_topics=scaled(1000),
        rt_sizes=RT_SIZES,
        events=200,
        seed=1,
    ))
    emit("Fig. 6 — overhead & delay vs routing-table size", rows)

    vitis_high = {
        r["rt_size"]: r for r in rows
        if r["system"] == "vitis" and r["pattern"] == "high"
    }
    rvr = {r["rt_size"]: r for r in rows if r["system"] == "rvr"}

    # Bigger tables help both systems.
    assert vitis_high[35]["traffic_overhead_pct"] <= vitis_high[15]["traffic_overhead_pct"]
    assert rvr[35]["mean_delay_hops"] <= rvr[15]["mean_delay_hops"]
    # Vitis below RVR at every size.
    for rt in RT_SIZES:
        assert vitis_high[rt]["traffic_overhead_pct"] < rvr[rt]["traffic_overhead_pct"]
    # Everyone delivers.
    assert all(r["hit_ratio"] >= 0.999 for r in rows)
