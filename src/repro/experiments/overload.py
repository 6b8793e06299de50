"""Overload robustness scenario: publication rate × queue capacity.

The paper claims Vitis scales to Internet-scale traffic; this scenario
makes "traffic" mean something by bounding every node's inbox
(:mod:`repro.sim.capacity`) and sweeping publication rate against queue
capacity for Vitis and the RVR baseline.  Each trial interleaves
publishing with gossip cycles (:func:`measure_under_load`) so the data
plane competes with the control plane — heartbeats, the traffic that
keeps the overlay alive — inside the same per-cycle service windows,
and reports, next to the usual hit ratio / overhead / delay:

- ``shed_fraction`` / ``data_shed_fraction`` — how much was refused;
- ``control_survival`` — the fraction of control-plane messages
  admitted (graceful degradation means this stays near 1.0 while
  notifications shed first);
- ``backpressure``/``deferred`` — how often senders backed off;
- ``hotspot_load``/``hotspot_shed`` — the heaviest inbox
  (:meth:`repro.sim.network.Network.hotspots`), which under rendezvous
  routing is the rendezvous node the publish traffic converges on.

``capacity == 0`` means *no capacity layer at all*: the model is never
attached and the trial runs the exact pre-capacity code path — the
zero-cost-off baseline the CI job byte-compares against a plain-path
replication.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from repro.experiments.runner import build_system, make_subscriptions, metrics_row
from repro.experiments.spec import Sweep
from repro.sim.capacity import SHED_POLICIES, CapacityModel, NodeCapacity
from repro.sim.metrics import MetricsCollector
from repro.sim.rng import SeedTree
from repro.workloads.publication import sample_topics

__all__ = ["measure_under_load", "overload_sweep_spec"]


def measure_under_load(
    protocol,
    events_per_cycle: int,
    cycles: int,
    seed: int = 0,
    collector: Optional[MetricsCollector] = None,
) -> MetricsCollector:
    """Interleave publishing with protocol cycles and aggregate metrics.

    Unlike :func:`repro.experiments.runner.measure` (a burst at one
    instant), each of ``cycles`` windows runs one gossip cycle — the
    control plane: heartbeats, view exchanges — and then publishes
    ``events_per_cycle`` rate-weighted events from uniformly random
    subscriber publishers, so data and control traffic compete for the
    same bounded inboxes.  With no capacity model attached this is the
    plain build/publish loop (the zero-cost-off contract); with one,
    publishers react to backpressure: an event whose publisher's inbox
    is past the backpressure watermark is *deferred* — re-batched into
    the next cycle's publish window, after a drain, instead of being
    injected into a saturated neighborhood.  Events still backpressured
    when the window runs out are dropped at the source (visible as a
    lower ``events`` count), never blindly resent.
    """
    collector = collector if collector is not None else MetricsCollector()
    rng = np.random.default_rng(seed)
    tel = protocol.telemetry
    cap = protocol.capacity
    with tel.phase("measure_under_load"):
        candidates = [t for t in protocol.topics() if protocol.subscribers(t)]
        if not candidates:
            return collector
        pending: list = []  # (topic, publisher) re-batched by backpressure
        for _ in range(cycles):
            protocol.run_cycles(1)
            now = protocol.engine.now
            batch, pending = pending, []
            drawn = sample_topics(protocol.rates, events_per_cycle, rng,
                                  restrict=candidates)
            for topic in drawn:
                subs = sorted(protocol.subscribers(topic))
                if not subs:
                    continue
                batch.append((topic, subs[int(rng.integers(len(subs)))]))
            for topic, pub in batch:
                if cap is not None and cap.backpressured(pub, now):
                    protocol.backpressure_deferred += 1
                    pending.append((topic, pub))
                    continue
                collector.add(protocol.publish(topic, pub))
    return collector


def _overload_trial(system, pub_rate, capacity, policy, n_nodes, n_topics, seed):
    """One (system, publication rate, queue capacity) sweep point.

    Build and convergence run unbounded (the paper's warm-up assumption);
    the capacity model is attached only for the measurement window, so
    every sweep point stresses the same converged overlay.
    """
    subs = make_subscriptions("high", n_nodes, n_topics, seed)
    proto = build_system(system, subs, seed=seed)

    model = None
    if capacity:
        model = CapacityModel(
            NodeCapacity(service_rate=25, queue_depth=capacity, policy=policy),
            rng=SeedTree(seed).pyrandom("red", system, pub_rate, capacity),
        )
        proto.attach_capacity(model)

    col = measure_under_load(proto, pub_rate, 10, seed=seed + 1)
    row = metrics_row(
        col, system=system, pub_rate=pub_rate, capacity=capacity, policy=policy,
    )
    if model is not None:
        hot = proto.network.hotspots(1)
        row.update(
            shed_fraction=model.shed_fraction(),
            data_shed_fraction=model.data_shed_fraction(),
            control_survival=model.control_survival(),
            shed_total=int(sum(model.shed.values())),
            backpressure=int(model.backpressure_signals),
            # publish() folds per-record deferrals into the protocol
            # counter, so this one number covers both sites.
            deferred=int(proto.backpressure_deferred),
            hotspot_load=int(hot[0]["inbound"]) if hot else 0,
            hotspot_shed=int(hot[0]["shed"]) if hot else 0,
        )
    else:
        # Uniform row keys so the CSV stays rectangular across the sweep.
        row.update(
            shed_fraction=0.0, data_shed_fraction=0.0, control_survival=1.0,
            shed_total=0, backpressure=0, deferred=0,
            hotspot_load=0, hotspot_shed=0,
        )
    return row


def overload_sweep_spec(
    n_nodes: int = 200,
    n_topics: int = 400,
    pub_rates: Sequence[int] = (4, 16),
    capacities: Sequence[int] = (0, 64, 48, 32, 24),
    policy: str = "drop_lowest",
    seed: int = 0,
) -> Sweep:
    """Graceful degradation under overload: rate × capacity, Vitis vs RVR.

    For every ``(system, pub_rate, capacity)`` point, a converged overlay
    is driven for 10 cycles at ``pub_rate`` events/cycle through
    :func:`measure_under_load`, with every node's inbox bounded to
    ``capacity`` messages served at 25 msgs/cycle under ``policy`` (one
    of ``drop_newest`` / ``drop_lowest`` / ``red``; see
    :mod:`repro.sim.capacity`).  ``capacity=0`` disables the layer
    entirely — those rows are the elastic-transport baseline.

    All randomness derives from ``seed``, the probabilistic ``red``
    policy's stream included, so the same arguments replay the exact
    same sheds.  Rows carry shed/survival/backpressure/hotspot columns
    next to the standard metrics — graceful degradation reads as
    ``control_survival`` staying near 1.0 while ``data_shed_fraction``
    absorbs the overload and ``hit_ratio`` declines smoothly with
    shrinking capacity.
    """
    if policy not in SHED_POLICIES:
        raise ValueError(
            f"unknown shedding policy {policy!r}; pick one of {SHED_POLICIES}"
        )
    sweep = Sweep("overload_sweep")
    for system in ("vitis", "rvr"):
        for rate in pub_rates:
            for cap in capacities:
                sweep.trial(
                    _overload_trial, key=(system, rate, cap), seed=seed,
                    system=system, pub_rate=rate, capacity=cap, policy=policy,
                    n_nodes=n_nodes, n_topics=n_topics,
                )
    return sweep
