"""Fig. 4 — friends vs sw-neighbors (traffic overhead & delay).

Paper shape: Vitis overhead falls steeply as friend links replace
small-world links (−88% on high correlation at 12 friends); RVR is a flat
reference; Vitis-random stays under a third of RVR; hit ratio 100%
everywhere.  Delay improves with friends on correlated workloads.
"""

from benchmarks.conftest import emit
from repro.experiments import run_sweep, scaled
from repro.experiments.scenarios import fig4_spec


def test_fig4_friends_vs_sw(once):
    rows = once(run_sweep, fig4_spec(
        n_nodes=scaled(300),
        n_topics=scaled(1000),
        events=200,
        seed=1,
    ))
    emit("Fig. 4 — overhead & delay vs number of friends (rt=15)", rows)

    vitis_high = {
        r["n_friends"]: r for r in rows
        if r["system"] == "vitis" and r["pattern"] == "high"
    }
    rvr = next(r for r in rows if r["system"] == "rvr")

    # 100% hit ratio in all settings (paper section IV-B).
    assert all(r["hit_ratio"] >= 0.999 for r in rows)
    # Friends cut overhead dramatically on correlated subscriptions.
    assert (
        vitis_high[12]["traffic_overhead_pct"]
        < 0.35 * vitis_high[0]["traffic_overhead_pct"]
    )
    # Vitis at full friends is far below RVR.
    assert vitis_high[12]["traffic_overhead_pct"] < 0.3 * rvr["traffic_overhead_pct"]
    # Even random subscriptions beat RVR clearly at 12 friends.
    vitis_rand = {
        r["n_friends"]: r for r in rows
        if r["system"] == "vitis" and r["pattern"] == "random"
    }
    assert vitis_rand[12]["traffic_overhead_pct"] < 0.65 * rvr["traffic_overhead_pct"]
