"""Chaos sweep — SWIM failure detection vs the plain heartbeat timeout.

Not a paper figure: the paper's liveness rule is timeout-equals-death,
which under composed faults (crash burst + i.i.d. loss + persistently
lossy links + bounded inboxes) evicts live nodes whose
links merely look bad.  This sweep runs the identical chaos timeline
under both liveness sources and asserts the PR's acceptance gate: the
SWIM detector (probe, indirect probe, suspicion, incarnation-refutation)
achieves a strictly lower false-positive eviction rate than the
heartbeat baseline at equal-or-better detection latency, under >= 5%
loss, without giving up delivery — while half the crashed nodes rejoin
gracefully mid-run.
"""

from benchmarks.conftest import emit
from repro.experiments import run_sweep, scaled
from repro.experiments.scenarios import chaos_sweep_spec

LOSS_RATES = (0.05, 0.1)


def test_chaos_sweep(once):
    rows = once(run_sweep, chaos_sweep_spec(
        n_nodes=scaled(200),
        n_topics=400,
        loss_rates=LOSS_RATES,
        kill_frac=0.15,
        rejoin_frac=0.5,
        chaos_cycles=20,
        recover_cycles=12,
        events=120,
        seed=0,
    ))
    emit("Chaos sweep — SWIM vs heartbeat under composed faults", rows)

    cell = {(r["detector"], r["loss_rate"]): r for r in rows}
    for rate in LOSS_RATES:
        sw, hb = cell[("swim", rate)], cell[("heartbeat", rate)]

        # The acceptance gate: fewer false evictions, no slower detection.
        # Per-victim forget times are whole cycles and both mechanisms
        # carry +-1 cycle of probe/heartbeat phase jitter, so "equal"
        # latency is asserted at one-cycle granularity per rate (the
        # strict comparison is made on the sweep aggregate below).
        assert sw["false_eviction_rate"] < hb["false_eviction_rate"]
        assert sw["false_evictions"] < hb["false_evictions"]
        assert sw["detection_latency"] <= hb["detection_latency"] + 1.0
        assert sw["undetected"] <= hb["undetected"]

        # Accuracy is not bought with delivery: SWIM's hit ratio holds up
        # (small estimator tolerance on a 120-event sample).
        assert sw["hit_ratio"] >= hb["hit_ratio"] - 0.02

        # The machinery actually ran, and every returning crash victim
        # re-entered through the graceful rejoin path.
        assert sw["probes_sent"] > 0 and sw["suspicions"] > 0
        assert sw["confirmations"] >= 1
        assert sw["rejoined"] > 0
        assert sw["detector_rejoins"] == sw["rejoined"]
        assert hb["probes_sent"] == 0  # baseline: no detector constructed

    # Aggregated over the sweep, SWIM detects strictly faster.
    assert sum(cell[("swim", r)]["detection_latency"] for r in LOSS_RATES) \
        < sum(cell[("heartbeat", r)]["detection_latency"] for r in LOSS_RATES)
