"""Fig. 12 — Vitis vs RVR under Skype-like churn with a flash crowd.

Paper shape: both systems tolerate moderate churn at ≈100% hit ratio;
the flash crowd dents RVR's hit ratio (to ~87% at paper scale) while
Vitis stays ≈99%, because a Vitis subscriber only needs *a group-mate*
to start receiving events whereas an RVR subscriber must complete its own
relay path over a not-yet-converged structure.  Vitis's overhead bumps up
briefly during the crowd (redundant gateways); RVR's *drops* — its trees
are simply broken.
"""

from benchmarks.conftest import emit
from repro.experiments import run_sweep, scaled
from repro.experiments.scenarios import fig12_spec


def test_fig12_churn(once):
    rows = once(run_sweep, fig12_spec(
        pool=scaled(250),
        n_topics=200,
        horizon=240.0,
        flash_crowd_at=160.0,
        seed=1,
    ))
    emit("Fig. 12 — churn: hit ratio / overhead / delay over time", rows)

    def series(system, key):
        return {
            r["time"]: r[key]
            for r in rows
            if r["system"] == system and r["events"] > 0
        }

    vitis_hit = series("vitis", "hit_ratio")
    rvr_hit = series("rvr", "hit_ratio")

    # Moderate churn (well before the crowd): Vitis ≈ full hit; RVR
    # close but visibly more fragile (every departure breaks a tree until
    # detected — our churn is still orders of magnitude faster relative
    # to the gossip period than the paper's regime, see scenario docs).
    calm = [t for t in vitis_hit if 60 <= t < 160]
    assert min(vitis_hit[t] for t in calm) > 0.95
    assert min(rvr_hit[t] for t in calm) > 0.85

    # Through the flash crowd, Vitis degrades less than RVR.
    crowd_window = [t for t in vitis_hit if 160 < t <= 220]
    assert crowd_window, "no measurement fell in the crowd window"
    vit_worst = min(vitis_hit[t] for t in crowd_window)
    rvr_worst = min(rvr_hit[t] for t in crowd_window)
    assert vit_worst >= rvr_worst - 0.02
    # Vitis stays near-perfect through the crowd (paper: ≈99% worst case).
    assert vit_worst > 0.93
    # Overall robustness ordering (the Fig. 12(a) claim in one number).
    assert min(vitis_hit.values()) >= min(rvr_hit.values())

    # Vitis's overhead stays far below RVR's throughout (Fig. 12(b)).
    v_over = series("vitis", "traffic_overhead_pct")
    r_over = series("rvr", "traffic_overhead_pct")
    common = sorted(set(v_over) & set(r_over))
    assert all(v_over[t] < r_over[t] for t in common)

    # The population actually spiked (the experiment is meaningful).
    live = series("vitis", "live_nodes")
    assert max(live[t] for t in crowd_window) > 1.3 * live[min(live)]
