"""Chaos sweep: composed faults, SWIM vs. plain-heartbeat liveness.

The ``fault_sweep`` exercises one fault class at a time; real deployments
get all of them at once.  Each chaos trial composes **massive churn**
(a crash burst killing ``kill_frac`` of the population, half of which
later rejoins gracefully), **i.i.d. loss**, **persistently lossy links**
(the false-eviction driver: to a heartbeat timeout a 50%-loss link is
indistinguishable from a crash), **slow links** and — when
``queue_capacity`` is nonzero — **overload** via bounded inboxes, on one
converged Vitis overlay with healing active throughout.

The swept axis is the *liveness source*:

- ``detector="heartbeat"`` — the paper's timeout-equals-death rule, with
  no detector object ever constructed (the exact pre-detector code path,
  the zero-cost-off baseline);
- ``detector="swim"`` — :class:`repro.faults.SwimDetector` attached:
  probe / indirect-probe / suspicion / refutation, with suspicion (not
  timeout) gating eviction and confirmation triggering a global purge.

Each row reports, next to the usual hit-ratio metrics:

- ``detection_latency`` — mean cycles from the crash burst until a
  victim is gone from every live routing table (censored at
  ``chaos_cycles`` for victims never fully forgotten; ``undetected``
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

from repro.experiments.spec import Sweep, flat_reduce

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
    detector, loss_rate, index, n_nodes, n_topics, kill_frac, rejoin_frac,
    chaos_cycles, recover_cycles, events, seed, fault_seed,
    probe_fanout, suspicion_base, lossy_rate, lossy_fraction,
    slow_extra, slow_fraction, queue_capacity, service_rate,
):
    """One (detector, loss rate) chaos point.

    Build and convergence run fault-free (every point stresses the same
    converged overlay); then the composed fault model, the optional
    capacity model and — for ``detector="swim"`` — the detector are
    attached and the timeline runs crash burst → ``chaos_cycles`` of
    detection (scanning per-victim forget cycles) → graceful rejoin of
    ``rejoin_frac`` of the victims → ``recover_cycles`` of healing →
    measurement with every fault still active.
    """
    from repro.core.config import VitisConfig
    from repro.experiments.runner import build_vitis, measure
    from repro.experiments.scenarios import _metrics_row, make_subscriptions
    from repro.faults import (
        CompositeFault,
        DetectorConfig,
        HealingPolicy,
        LinkLoss,
        MessageLoss,
        SlowLinks,
        SwimDetector,
        crash_nodes,
    )
    from repro.sim.churn import flash_crowd
    from repro.sim.rng import SeedTree

    cfg = VitisConfig()
    subs = make_subscriptions("high", n_nodes, n_topics, seed)
    froot = SeedTree(fault_seed)
    proto = build_vitis(subs, cfg, seed=seed)

    models = [MessageLoss(loss_rate, froot.pyrandom("loss", detector, index))]
    if lossy_rate > 0 and lossy_fraction > 0:
        models.append(
            LinkLoss(
                lossy_rate,
                froot.pyrandom("lossy", detector, index),
                lossy_fraction=lossy_fraction,
            )
        )
    if slow_extra > 0:
        models.append(SlowLinks(slow_extra, slow_fraction=slow_fraction))
    model = CompositeFault(models)
    proto.attach_faults(model, HealingPolicy())
    if queue_capacity:
        from repro.sim.capacity import CapacityModel, NodeCapacity

        proto.attach_capacity(
            CapacityModel(
                NodeCapacity(
                    service_rate=service_rate,
                    queue_depth=queue_capacity,
                ),
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
    victims = sorted(kill_rng.sample(live, int(len(live) * kill_frac)))
    crash_nodes(proto, victims)
    crash_cycle = proto.cycle

    # Detection scan: a victim counts as detected the first cycle no live
    # routing table still holds it (gossip can briefly re-admit stale
    # descriptors afterwards; first disappearance is the fair latency for
    # both liveness sources).
    forget: Dict[int, int] = {}
    for _ in range(chaos_cycles):
        proto.run_cycles(1)
        live_nodes = [proto.nodes[a] for a in proto.live_addresses()]
        for v in victims:
            if v not in forget and not any(v in n.rt for n in live_nodes):
                forget[v] = proto.cycle - crash_cycle

    # Graceful rejoin: a flash crowd of returning victims re-enters via
    # protocol.rejoin — bootstrap re-entry, subscription recovery from
    # the surviving profile, targeted relay re-install.
    back = victims[: int(round(len(victims) * rejoin_frac))]
    if back:
        sched = flash_crowd(
            cycle=proto.cycle + 1,
            addresses=back,
            period=cfg.gossip_period,
            spread=cfg.gossip_period,
            rng=froot.pyrandom("rejoin", detector, index),
        )
        sched.apply(proto.engine, join=proto.rejoin, leave=proto.leave)
    proto.run_cycles(recover_cycles)

    collector = measure(proto, events, seed=seed)
    detection_latency = (
        sum(forget.values()) / len(forget) if forget else float(chaos_cycles)
    )
    false = proto.false_evictions
    dead = proto.fault_evictions
    det = proto.detector
    det_counts = det.summary() if det is not None else dict(_DET_ZERO)
    return [
        _metrics_row(
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
    detectors: Sequence[str] = ("heartbeat", "swim"),
    loss_rates: Sequence[float] = (0.05, 0.1),
    kill_frac: float = 0.15,
    rejoin_frac: float = 0.5,
    chaos_cycles: int = 20,
    recover_cycles: int = 12,
    events: int = 120,
    seed: int = 0,
    fault_seed: Optional[int] = None,
    probe_fanout: int = 3,
    suspicion_base: float = 0.5,
    lossy_rate: float = 0.5,
    lossy_fraction: float = 0.2,
    slow_extra: float = 0.2,
    slow_fraction: float = 0.1,
    queue_capacity: int = 64,
    service_rate: int = 25,
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
                n_nodes=n_nodes, n_topics=n_topics,
                kill_frac=kill_frac, rejoin_frac=rejoin_frac,
                chaos_cycles=chaos_cycles, recover_cycles=recover_cycles,
                events=events, fault_seed=fault_seed,
                probe_fanout=probe_fanout, suspicion_base=suspicion_base,
                lossy_rate=lossy_rate, lossy_fraction=lossy_fraction,
                slow_extra=slow_extra, slow_fraction=slow_fraction,
                queue_capacity=queue_capacity, service_rate=service_rate,
            )
    return sweep
