"""Build / converge / measure primitives for the scenarios.

The standard static-topology pipeline is:

1. **build** the protocol with elections and relay installation deferred
   (their fixed point does not depend on when they run on a static
   topology, and deferring them makes warm-up an order of magnitude
   faster);
2. **converge** the topology: run gossip cycles until the ring invariant
   holds (the paper's lookup-consistency precondition), bounded by a cap;
3. **finalize**: run the gateway election to its fixed point and install
   the relay paths once;
4. **measure**: publish events on rate-weighted random topics from
   uniformly random subscriber publishers and aggregate the three metrics.

Churn scenarios skip the deferral and run the full protocol every cycle.
Every scenario module draws its subscriptions through
:func:`make_subscriptions`, picks its system through :func:`build_system`
and turns a collector into a row through :func:`metrics_row`.
"""

from __future__ import annotations

import logging
from typing import Collection, Dict, Iterable, Iterator, Mapping, Optional, Tuple

import numpy as np

from repro import obs
from repro.baselines.opt import OptProtocol
from repro.baselines.rvr import RvrProtocol
from repro.core.config import VitisConfig
from repro.core.protocol import VitisProtocol
from repro.core.utility import PublicationRates
from repro.sim.metrics import MetricsCollector, restrict_record
from repro.smallworld.ring import is_ring_converged
from repro.workloads.publication import sample_topics
from repro.workloads.subscriptions import (
    high_correlation_subscriptions,
    low_correlation_subscriptions,
    random_subscriptions,
)

__all__ = [
    "PATTERNS", "build_opt", "build_rvr", "build_system", "build_vitis", "converge",
    "event_stream", "make_subscriptions", "measure", "metrics_row",
]

log = logging.getLogger(__name__)

#: Gossip cycles between ring-convergence checks during warm-up.
CONVERGE_CHUNK = 10


def converge(protocol, min_cycles: int = 30, max_cycles: int = 120) -> int:
    """Run gossip cycles until the ring converges (or the cap is hit).

    Returns the total cycles run.  OPT has no ring; its warm-up is plain
    ``run_cycles`` (see :func:`build_opt`).

    Telemetry: each convergence check appends to the ``ring_converged``
    probe time series (indexed by cycles run) and emits a
    ``converge_check`` trace event, so a slow warm-up shows *when* the
    ring snapped into place rather than just how long it took.
    """
    tel = protocol.telemetry
    with tel.phase("converge"):
        protocol.run_cycles(min_cycles)
        cycles = min_cycles
        while True:
            converged = is_ring_converged(
                protocol.ids_by_address(), protocol.successor_map()
            )
            if tel.enabled:
                # The probe series is run-level but indexed by per-trial
                # cycle counts; when several trials share one telemetry
                # (bench, --metrics-out sweeps) a fast-converging trial
                # after a slow one would rewind the series clock.  Those
                # checks stay visible in the trace stream; the series
                # keeps only the non-rewinding samples.
                last = tel.series.latest_time("ring_converged")
                if last is None or cycles >= last:
                    tel.series.record(
                        "ring_converged", float(cycles), float(converged)
                    )
                tel.event("converge_check", t=protocol.engine.now,
                          cycles=cycles, converged=converged)
            if converged or cycles >= max_cycles:
                break
            protocol.run_cycles(CONVERGE_CHUNK)
            cycles += CONVERGE_CHUNK
    if tel.enabled:
        tel.metrics.gauge("converge_cycles", system=protocol.name).set(cycles)
    if converged:
        log.debug("%s converged in %d cycles (cap %d)", protocol.name, cycles, max_cycles)
    else:
        log.warning(
            "%s ring not converged at the %d-cycle cap; measuring it as it is",
            protocol.name, max_cycles,
        )
    return cycles


def build_vitis(
    subscriptions,
    config: VitisConfig = VitisConfig(),
    seed: int = 0,
    rates: Optional[PublicationRates] = None,
    min_cycles: int = 30,
    max_cycles: int = 120,
    sampler_cls=None,
    utility=None,
    telemetry=None,
) -> VitisProtocol:
    """A converged, relay-installed Vitis system ready for measurement.

    ``telemetry`` (here and in the other builders) defaults to the
    ambient :func:`repro.obs.current` object; the build/converge/finalize
    wall time lands in its phase breakdown.
    """
    telemetry = telemetry if telemetry is not None else obs.current()
    with telemetry.phase("build"):
        p = VitisProtocol(
            subscriptions,
            config,
            seed=seed,
            rates=rates,
            election_every=0,
            relay_every=0,
            sampler_cls=sampler_cls,
            utility=utility,
            telemetry=telemetry,
        )
    converge(p, min_cycles, max_cycles)
    with telemetry.phase("finalize"):
        p.finalize()
    return p


def build_rvr(
    subscriptions,
    config: VitisConfig = VitisConfig(),
    seed: int = 0,
    rates: Optional[PublicationRates] = None,
    min_cycles: int = 30,
    max_cycles: int = 120,
    telemetry=None,
) -> RvrProtocol:
    """A converged RVR system with all subscriber trees installed."""
    telemetry = telemetry if telemetry is not None else obs.current()
    with telemetry.phase("build"):
        p = RvrProtocol(
            subscriptions, config, seed=seed, rates=rates, relay_every=0,
            telemetry=telemetry,
        )
    converge(p, min_cycles, max_cycles)
    with telemetry.phase("finalize"):
        p.finalize()
    return p


def build_opt(
    subscriptions,
    config: VitisConfig = VitisConfig(),
    seed: int = 0,
    rates: Optional[PublicationRates] = None,
    cycles: int = 40,
    max_degree: Optional[int] = -1,
    coverage: int = 2,
    telemetry=None,
) -> OptProtocol:
    """A warmed-up OPT system (bounded by default; ``max_degree=None``
    for the unbounded Fig. 11 variant)."""
    telemetry = telemetry if telemetry is not None else obs.current()
    with telemetry.phase("build"):
        p = OptProtocol(
            subscriptions,
            config,
            seed=seed,
            rates=rates,
            max_degree=max_degree,
            coverage=coverage,
            telemetry=telemetry,
        )
    with telemetry.phase("converge"):
        p.run_cycles(cycles)
    return p


def build_system(system: str, subscriptions, config: VitisConfig = VitisConfig(),
                 seed: int = 0, **kwargs):
    """:func:`build_vitis`, :func:`build_rvr` or :func:`build_opt` by
    ``system`` name (``"vitis"``, ``"rvr"``, ``"opt"``); ``kwargs`` go to
    that builder."""
    builder = {"vitis": build_vitis, "rvr": build_rvr, "opt": build_opt}[system]
    return builder(subscriptions, config, seed=seed, **kwargs)


PATTERNS = ("high", "low", "random")

_PATTERN_FNS = {
    "high": high_correlation_subscriptions,
    "low": low_correlation_subscriptions,
    "random": random_subscriptions,
}


def make_subscriptions(pattern: str, n_nodes: int, n_topics: int, seed: int):
    """The three synthetic patterns of section IV-A by name."""
    try:
        fn = _PATTERN_FNS[pattern]
    except KeyError:
        raise ValueError(f"unknown pattern {pattern!r}; expected one of {PATTERNS}")
    if pattern == "random":
        return fn(n_nodes, n_topics, per_node=50, seed=seed)
    return fn(n_nodes, n_topics, seed=seed)


def metrics_row(collector: MetricsCollector, **params) -> Dict:
    """A scenario row: ``params`` followed by the collector's summary."""
    row = dict(params)
    row.update(collector.summary())
    return row


def event_stream(
    rates: PublicationRates,
    n_events: int,
    rng,
    live: Mapping[int, Collection[int]],
    publisher: str = "subscriber",
) -> Iterator[Tuple[int, int]]:
    """The measurement's ``(topic, publisher)`` pairs, drawn from ``rng``.

    ``live`` maps each candidate topic to its non-empty subscriber set.
    Every topic is drawn first, rate-weighted over ``live``'s keys in
    their order; then, in ``"subscriber"`` mode, one ``rng.integers``
    call over the drawn topics' subscriber counts picks every event's
    index into its topic's sorted subscribers.  That call yields the
    values, and leaves ``rng`` in the state, that one scalar draw per
    event would (``"owner"`` mode draws nothing: the publisher is the
    topic id).  All draws happen before the first pair is yielded.
    :func:`measure` and the live cluster driver both consume this, so
    the in-sim prediction and the commanded publishes are one workload.
    """
    topics = sample_topics(rates, n_events, rng, restrict=list(live))
    if publisher == "owner":
        for topic in topics:
            yield topic, topic
        return
    if not topics:
        return
    sorted_subs = {t: sorted(live[t]) for t in dict.fromkeys(topics)}
    picks = rng.integers([len(sorted_subs[t]) for t in topics]).tolist()
    for topic, k in zip(topics, picks):
        yield topic, sorted_subs[topic][k]


def measure(
    protocol,
    n_events: int,
    seed: int = 0,
    publisher: str = "subscriber",
    collector: Optional[MetricsCollector] = None,
    min_join_age: float = 0.0,
    topics: Optional[Iterable[int]] = None,
) -> MetricsCollector:
    """Publish ``n_events`` and aggregate the metrics.

    Parameters
    ----------
    publisher:
        ``"subscriber"`` — a uniformly random live subscriber of the topic
        (the synthetic experiments); ``"owner"`` — the node whose dense id
        equals the topic id (the Twitter mapping: a user publishes on its
        own topic).
    min_join_age:
        When positive, restrict the hit-ratio denominator to subscribers
        that joined at least this many simulated seconds ago (the paper's
        10-second rule).
    topics:
        Restrict the topic draw (default: every topic with a live
        subscriber).
    """
    if publisher not in ("subscriber", "owner"):
        raise ValueError(f"unknown publisher mode: {publisher!r}")
    collector = collector if collector is not None else MetricsCollector()
    rng = np.random.default_rng(seed)
    tel = protocol.telemetry

    with tel.phase("measure"):
        # The subscriber set is static for the duration of a measurement
        # pass (no cycles run between publishes): build it once per topic.
        live = {}
        for t in (topics if topics is not None else protocol.topics()):
            subs = protocol.subscribers(t)
            if subs:
                live[t] = subs
        if not live:
            return collector
        now = protocol.engine.now
        owner = publisher == "owner"
        publish = protocol.publish
        add = collector.add
        for topic, pub in event_stream(
            protocol.rates, n_events, rng, live, publisher
        ):
            if owner and not protocol.is_alive(pub):
                continue
            rec = publish(topic, pub)
            if min_join_age > 0:
                eligible = [
                    a
                    for a in rec.subscribers
                    if protocol.nodes[a].joined_at <= now - min_join_age
                ]
                rec = restrict_record(rec, eligible)
            add(rec)
    return collector
