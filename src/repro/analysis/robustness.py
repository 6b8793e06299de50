"""Failure-injection robustness probes.

The churn experiment (Fig. 12) measures the *maintained* system — gossip
keeps running while nodes come and go.  These probes ask the complementary
question the paper's robustness discussion implies but never isolates:
**how much delivery survives an instantaneous failure, before any repair
round runs?**

:func:`failure_sweep` kills a random fraction of the live population,
measures delivery on the frozen (unrepaired) overlay, then rolls the
population back — the protocol object is left exactly as found.  Because
Vitis events travel through cluster meshes (many redundant paths) plus
relay trees, while RVR events depend on every tree edge, the degradation
curves separate sharply; that separation is the mechanism behind the
Fig. 12 flash-crowd gap.
"""

from __future__ import annotations

from typing import Dict, List, Sequence

import numpy as np

from repro.faults.kill import crash_nodes
from repro.sim.metrics import MetricsCollector

__all__ = ["failure_sweep", "kill_fraction"]


def kill_fraction(protocol, fraction: float, rng) -> List[int]:
    """Crash a uniformly random ``fraction`` of live nodes (no repair
    rounds are run).  ``fraction`` ranges over ``[0, 1]`` inclusive:
    ``1.0`` kills the entire live population (every later publish finds
    no live publisher, so a sweep row at 1.0 records zero events).
    Returns the killed addresses so the caller can restart them.

    The kill itself is :func:`repro.faults.crash_nodes` — the same
    crash-without-cleanup path the ``fault_sweep`` scenario injects —
    so both robustness probes stress one code path."""
    if not 0.0 <= fraction <= 1.0:
        raise ValueError("fraction must be in [0, 1]")
    live = sorted(protocol.live_addresses())
    n_kill = int(len(live) * fraction)
    victims = [live[i] for i in rng.choice(len(live), size=n_kill, replace=False)]
    return crash_nodes(protocol, victims)


def failure_sweep(
    protocol,
    fractions: Sequence[float] = (0.0, 0.1, 0.2, 0.3, 0.4),
    events_per_point: int = 100,
    seed: int = 0,
) -> List[Dict]:
    """Delivery vs instantaneous failure fraction, without repair.

    For each fraction: kill, publish ``events_per_point`` events from
    random *surviving* subscribers, record hit ratio over surviving
    subscribers, restore.  Fractions range over ``[0, 1]`` inclusive (see
    :func:`kill_fraction`; at 1.0 there is no surviving publisher and the
    row records zero events).  The protocol's topology state (routing
    tables, relay trees, elections) is never touched — exactly the
    "crash happened a millisecond ago" snapshot.
    """
    rng = np.random.default_rng(seed)
    rows: List[Dict] = []
    for fraction in fractions:
        victims = kill_fraction(protocol, fraction, rng)
        try:
            collector = MetricsCollector()
            topics = [t for t in protocol.topics() if protocol.subscribers(t)]
            if topics:
                picks = rng.choice(len(topics), size=events_per_point)
                for i in picks:
                    topic = topics[int(i)]
                    subs = sorted(protocol.subscribers(topic))
                    if not subs:
                        continue
                    pub = subs[int(rng.integers(len(subs)))]
                    collector.add(protocol.publish(topic, pub))
            rows.append(
                {
                    "system": getattr(protocol, "name", type(protocol).__name__),
                    "killed_fraction": fraction,
                    "events": len(collector),
                    "hit_ratio": collector.hit_ratio(),
                    "mean_delay_hops": collector.mean_delay(),
                }
            )
        finally:
            for a in victims:
                protocol.nodes[a].start()
            # Membership changed outside the protocol's join/leave paths:
            # a new topology version refreshes the adjacency caches.
            protocol.topology_version += 1
    return rows
