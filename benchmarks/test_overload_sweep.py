"""Overload sweep — graceful degradation under bounded per-node inboxes.

Not a paper figure: the paper assumes an elastic transport.  This sweep
bounds every inbox and drives publication rate × queue capacity for
Vitis vs RVR, checking the behaviour the capacity layer is designed to
produce: the control plane (heartbeats — the traffic that keeps the
overlay alive) survives nearly untouched while notifications shed first,
the hit ratio declines smoothly as capacity shrinks (no cliff), and
RVR's rendezvous-rooted trees concentrate more load — and more shedding
— on their hottest node than Vitis's clustered dissemination does.
"""

from benchmarks.conftest import emit
from repro.experiments import run_sweep
from repro.experiments.scenarios import overload_sweep_spec

PUB_RATES = (4, 16)          # 16 = 4x the near-saturating base rate
CAPACITIES = (0, 64, 48, 32, 24)  # 0 = unbounded (capacity layer off)


def test_overload_sweep():
    rows = run_sweep(overload_sweep_spec(
        n_nodes=200,
        n_topics=400,
        pub_rates=PUB_RATES,
        capacities=CAPACITIES,
        seed=0,
    ))
    emit("Overload sweep — hit ratio / shedding vs queue capacity", rows)

    cell = {(r["system"], r["pub_rate"], r["capacity"]): r for r in rows}

    # Unbounded rows are the elastic baseline: nothing shed, full delivery.
    for system in ("vitis", "rvr"):
        for rate in PUB_RATES:
            base = cell[(system, rate, 0)]
            assert base["shed_total"] == 0 and base["hit_ratio"] == 1.0

    # Graceful degradation at 4x saturating load: control survives >95%
    # at every bounded capacity while the data plane sheds first.
    for cap in CAPACITIES[1:]:
        harsh = cell[("vitis", 16, cap)]
        assert harsh["control_survival"] > 0.95
        assert harsh["shed_total"] > 0
        assert harsh["data_shed_fraction"] > 1.0 - harsh["control_survival"]

    # The hit ratio declines monotonically as capacity shrinks, and
    # smoothly — no adjacent pair of capacities loses more than half the
    # delivery ratio in one step (the no-cliff check).
    for rate in PUB_RATES:
        curve = [cell[("vitis", rate, c)]["hit_ratio"] for c in CAPACITIES]
        for hi, lo in zip(curve, curve[1:]):
            assert lo <= hi + 0.02  # monotone, small estimator tolerance
            assert hi - lo < 0.5    # no cliff
        assert curve[-1] > 0.2      # still useful at the tightest queue

    # Clustered dissemination beats single-rooted trees under pressure:
    # Vitis out-delivers RVR at every bounded sweep point.
    for rate in PUB_RATES:
        for cap in CAPACITIES[1:]:
            assert cell[("vitis", rate, cap)]["hit_ratio"] \
                > cell[("rvr", rate, cap)]["hit_ratio"]

    # Backpressure actually engaged at the tight end (senders deferred
    # rather than blind-resent), and RVR's tree roots run hotter: its
    # hottest inbox sheds a larger share of its inbound traffic.
    v, r = cell[("vitis", 16, 24)], cell[("rvr", 16, 24)]
    assert v["backpressure"] > 0 and v["deferred"] > 0
    assert r["hotspot_shed"] / r["hotspot_load"] \
        > v["hotspot_shed"] / v["hotspot_load"]
