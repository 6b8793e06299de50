"""Chaos sweep: composed faults, SWIM vs. plain-heartbeat liveness.

The ``fault_sweep`` exercises one fault class at a time; real deployments
get all of them at once.  Each chaos trial composes **massive churn**
(a crash burst killing 15% of the population, half of which later
rejoins gracefully), **i.i.d. loss**, **persistently lossy links** (a
fifth of the links lose half their messages: the false-eviction driver,
since to a heartbeat timeout a 50%-loss link is indistinguishable from a
crash) and **overload** via bounded inboxes (64 messages deep, 25 served
per cycle), on one converged Vitis overlay with healing active
throughout.

The swept axis is the *liveness source*:

- ``detector="heartbeat"`` — the paper's timeout-equals-death rule, with
  no detector object ever constructed (the exact pre-detector code path,
  the zero-cost-off baseline);
- ``detector="swim"`` — :class:`repro.faults.SwimDetector` attached:
  probe / indirect-probe / suspicion / refutation, with suspicion (not
  timeout) gating eviction and confirmation triggering a global purge.

Each row reports, next to the usual hit-ratio metrics:

- ``detection_latency`` — mean cycles from the crash burst until a
  victim is gone from every live routing table (censored at the 20
  detection cycles for victims never fully forgotten; ``undetected``
  counts those);
- ``false_evictions`` / ``false_eviction_rate`` — live nodes evicted as
  if dead, and their share of all evictions (the detection-accuracy
  axis the acceptance gate compares);
- ``rejoined``, ``repairs``, ``retries`` and the detector's own probe /
  suspicion / refutation counters (zeros on the heartbeat baseline so
  the CSV stays rectangular).
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence

from repro.experiments.runner import build_vitis, make_subscriptions, measure, metrics_row
from repro.experiments.spec import Sweep, flat_reduce
from repro.faults import (
    CompositeFault,
    DetectorConfig,
    HealingPolicy,
    LinkLoss,
    MessageLoss,
    SwimDetector,
    crash_nodes,
)
from repro.sim.capacity import CapacityModel, NodeCapacity
from repro.sim.churn import flash_crowd
from repro.sim.rng import SeedTree

__all__ = ["chaos_sweep_spec"]

DETECTORS = ("heartbeat", "swim")

#: Heartbeat-baseline stand-ins for the detector counters, keeping row
#: keys uniform across the detector axis.
_DET_ZERO = {
    "probes_sent": 0,
    "probe_misses": 0,
    "indirect_probes": 0,
    "suspicions": 0,
    "refutations": 0,
    "confirmations": 0,
    "detector_rejoins": 0,
}


def _chaos_trial(
    detector, loss_rate, index, n_nodes, n_topics, seed, fault_seed,
    probe_fanout, suspicion_base,
):
    """One (detector, loss rate) chaos point.

    Build and convergence run fault-free (every point stresses the same
    converged overlay); then the composed fault model, the capacity
    model and — for ``detector="swim"`` — the detector are attached and
    the timeline runs crash burst → 20 cycles of detection (scanning
    per-victim forget cycles) → graceful rejoin of half the victims →
    12 cycles of healing → 120 events measured with every fault still
    active.
    """
    subs = make_subscriptions("high", n_nodes, n_topics, seed)
    froot = SeedTree(fault_seed)
    proto = build_vitis(subs, seed=seed)
    period = proto.config.gossip_period

    model = CompositeFault([
        MessageLoss(loss_rate, froot.pyrandom("loss", detector, index)),
        LinkLoss(0.5, froot.pyrandom("lossy", detector, index), lossy_fraction=0.2),
    ])
    proto.attach_faults(model, HealingPolicy())
    proto.attach_capacity(
        CapacityModel(
            NodeCapacity(service_rate=25, queue_depth=64),
            rng=froot.pyrandom("red", detector, index),
        )
    )
    if detector == "swim":
        proto.attach_detector(
            SwimDetector(
                froot.pyrandom("swim", index),
                DetectorConfig(
                    probe_fanout=probe_fanout, suspicion_base=suspicion_base
                ),
            )
        )

    kill_rng = froot.pyrandom("kill", detector, index)
    live = sorted(proto.live_addresses())
    victims = sorted(kill_rng.sample(live, int(len(live) * 0.15)))
    crash_nodes(proto, victims)
    crash_cycle = proto.cycle

    # Detection scan: a victim counts as detected the first cycle no live
    # routing table still holds it (gossip can briefly re-admit stale
    # descriptors afterwards; first disappearance is the fair latency for
    # both liveness sources).
    forget: Dict[int, int] = {}
    for _ in range(20):
        proto.run_cycles(1)
        live_nodes = [proto.nodes[a] for a in proto.live_addresses()]
        for v in victims:
            if v not in forget and not any(v in n.rt for n in live_nodes):
                forget[v] = proto.cycle - crash_cycle

    # Graceful rejoin: a flash crowd of returning victims re-enters via
    # protocol.rejoin — bootstrap re-entry, subscription recovery from
    # the surviving profile, targeted relay re-install.
    back = victims[: int(round(len(victims) * 0.5))]
    if back:
        sched = flash_crowd(
            cycle=proto.cycle + 1,
            addresses=back,
            period=period,
            spread=period,
            rng=froot.pyrandom("rejoin", detector, index),
        )
        sched.apply(proto.engine, join=proto.rejoin, leave=proto.leave)
    proto.run_cycles(12)

    collector = measure(proto, 120, seed=seed)
    detection_latency = sum(forget.values()) / len(forget) if forget else 20.0
    false = proto.false_evictions
    dead = proto.fault_evictions
    det = proto.detector
    det_counts = det.summary() if det is not None else dict(_DET_ZERO)
    return [
        metrics_row(
            collector,
            system="vitis",
            detector=detector,
            loss_rate=loss_rate,
            detection_latency=round(detection_latency, 3),
            undetected=len(victims) - len(forget),
            victims=len(victims),
            rejoined=len(back),
            false_evictions=false,
            dead_evictions=dead,
            false_eviction_rate=round(false / max(1, false + dead), 4),
            faults_injected=model.injected,
            retries=proto.fault_retries,
            repairs=proto.fault_repairs,
            **det_counts,
        )
    ]


def chaos_sweep_spec(
    n_nodes: int = 200,
    n_topics: int = 400,
    detectors: Sequence[str] = DETECTORS,
    loss_rates: Sequence[float] = (0.05, 0.1),
    seed: int = 0,
    fault_seed: Optional[int] = None,
    probe_fanout: int = 3,
    suspicion_base: float = 0.5,
) -> Sweep:
    """Detection accuracy/latency and delivery under composed faults.

    See the module docstring for the composition and row schema.  The
    acceptance gate (docs/robustness.md): at every swept loss rate, SWIM
    must show a strictly lower ``false_eviction_rate`` than the heartbeat
    baseline at equal or better ``detection_latency``.
    """
    unknown = [d for d in detectors if d not in DETECTORS]
    if unknown:
        raise ValueError(
            f"unknown detectors {unknown}; expected subset of {sorted(DETECTORS)}"
        )
    fault_seed = seed if fault_seed is None else fault_seed
    sweep = Sweep("chaos_sweep", reduce=flat_reduce)
    for i, rate in enumerate(loss_rates):
        for det in detectors:
            sweep.trial(
                _chaos_trial, key=("chaos", det, i), seed=seed,
                detector=det, loss_rate=rate, index=i,
                n_nodes=n_nodes, n_topics=n_topics, fault_seed=fault_seed,
                probe_fanout=probe_fanout, suspicion_base=suspicion_base,
            )
    return sweep
