"""Fig. 10 — Twitter subscriptions: hit ratio / overhead / delay for the
three systems over routing-table sizes.

Paper shape: Vitis and RVR hit 100% at every size; bounded OPT misses
subscribers and improves with degree but does not reach 100%; OPT's
overhead is zero; Vitis's overhead is 30–40% below RVR's; Vitis is the
fastest of the three.
"""

from benchmarks.conftest import emit
from repro.experiments import run_sweep, scaled
from repro.experiments.scenarios import fig10_spec

RT_SIZES = (15, 25, 35)


def test_fig10_twitter_sweep(once):
    rows = once(run_sweep, fig10_spec(
        n_users=scaled(6000),
        sample_size=scaled(600),
        events=200,
        seed=1,
    ))
    emit("Fig. 10 — Twitter workload: three systems vs routing-table size", rows)

    by = {(r["system"], r["rt_size"]): r for r in rows}

    for rt in RT_SIZES:
        # (a) hit ratio: Vitis/RVR full; OPT bounded below 100%.
        assert by[("vitis", rt)]["hit_ratio"] >= 0.99
        assert by[("rvr", rt)]["hit_ratio"] >= 0.99
        assert by[("opt", rt)]["hit_ratio"] < 0.999
        # (b) overhead: OPT zero; Vitis clearly below RVR.
        assert by[("opt", rt)]["traffic_overhead_pct"] == 0.0
        assert (
            by[("vitis", rt)]["traffic_overhead_pct"]
            < 0.7 * by[("rvr", rt)]["traffic_overhead_pct"]
        )
        # (c) delay: Vitis fastest.
        assert by[("vitis", rt)]["mean_delay_hops"] < by[("rvr", rt)]["mean_delay_hops"]

    # OPT's hit ratio improves with the degree budget.
    assert by[("opt", 35)]["hit_ratio"] > by[("opt", 15)]["hit_ratio"]
