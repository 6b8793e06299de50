"""Crash-without-cleanup node kills.

The one *write* path of the faults package: victims simply stop — no
goodbye messages, no deregistration, routing tables and relay trees still
point at them — so survivors must notice via heartbeats
(``age_and_evict`` / OPT ``prune_dead``) and repair around the corpses.
Both robustness probes share it: the instantaneous
:func:`repro.analysis.robustness.kill_fraction` snapshot and the
``fault_sweep`` scenario's mid-run kills.
"""

from __future__ import annotations

from typing import Iterable, List

__all__ = ["crash_nodes"]


def crash_nodes(protocol, victims: Iterable[int]) -> List[int]:
    """Crash every victim that is currently alive; returns those killed.

    Uses ``node.stop()`` directly rather than ``protocol.leave`` so the
    kill is invisible to the protocol layer (no leave event, no counter)
    — exactly a crash.  The topology version is bumped so adjacency
    caches refresh.
    """
    killed: List[int] = []
    for a in victims:
        node = protocol.nodes.get(a)
        if node is not None and node.alive:
            node.stop()
            killed.append(a)
    protocol.topology_version += 1
    return killed
