"""Fault sweep — delivery under message loss, crashes and partitions,
with the healing layer (retries + relay repair) running.

Not a paper figure: the paper asserts Vitis "tolerates faults gracefully"
and measures only churn (Fig. 12).  This sweep isolates the claim — i.i.d.
message loss plus a 10% crash burst, and a temporary half/half partition
— and checks the ordering the architecture predicts: cluster meshes plus
repaired relay trees keep Vitis's hit ratio at or above tree-only RVR at
every injected loss rate, and the partition damage heals once the cut
lifts.
"""

from benchmarks.conftest import emit
from repro.experiments import run_sweep
from repro.experiments.scenarios import fault_sweep_spec

LOSS_RATES = (0.0, 0.05, 0.2)


def test_fault_sweep():
    rows = run_sweep(fault_sweep_spec(
        n_nodes=160,
        n_topics=200,
        loss_rates=LOSS_RATES,
        partition_cycles=(6,),
        heal_cycles=10,
        events=100,
        seed=3,
        fault_seed=11,
    ))
    emit("Fault sweep — hit ratio under loss / crashes / partition", rows)

    loss = {
        (r["system"], r["loss_rate"]): r
        for r in rows if r["fault"] == "loss"
    }
    part = {
        (r["system"], r["phase"]): r
        for r in rows if r["fault"] == "partition"
    }

    # Vitis >= RVR at every swept loss point, including the harshest.
    for rate in LOSS_RATES:
        assert loss[("vitis", rate)]["hit_ratio"] >= loss[("rvr", rate)]["hit_ratio"]

    # Healing keeps Vitis useful even at 20% loss with 10% of nodes dead.
    assert loss[("vitis", 0.2)]["hit_ratio"] > 0.8

    # The machinery actually engaged: faults were injected and fought.
    harsh = loss[("vitis", 0.2)]
    assert harsh["faults_injected"] > 0
    assert harsh["retries"] > 0
    assert harsh["repairs"] > 0
    # The zero-loss point still repairs the crash burst's broken trees.
    assert loss[("vitis", 0.0)]["repairs"] > 0

    # Partition: delivery is dented while the halves are cut off and
    # recovers once the partition heals and the trees re-merge.
    v_cut = part[("vitis", "partitioned")]["hit_ratio"]
    v_healed = part[("vitis", "healed")]["hit_ratio"]
    assert v_cut < v_healed
    assert v_healed > 0.9
    assert part[("vitis", "healed")]["repairs"] > 0
    # The ordering claim holds through the partition too.
    assert v_healed >= part[("rvr", "healed")]["hit_ratio"]
