"""Relay-path construction and per-topic relay tables.

When a node recognises itself as gateway for topic ``t`` it performs a
greedy lookup on ``hash(t)`` (Alg. 5 line 21, ``RequestRelay``).  Every
node on the lookup path becomes a *relay node* for ``t``: it records a
parent pointer toward the rendezvous and a child pointer back toward the
gateway.  The union of all relay paths of a topic is a tree rooted at the
rendezvous node, through which the topic's disjoint clusters exchange
events — the Scribe-equivalent structure, but with clusters instead of
single nodes at the leaves.

As in Scribe, path installation stops early when it reaches a node that is
already on the topic's tree (the new branch grafts onto the existing one).
"""

from __future__ import annotations

from collections import defaultdict
from typing import Dict, Iterable, List, Optional, Set, Tuple

from repro.smallworld.routing import LookupResult

__all__ = ["RelayTable", "install_path", "RelayStats"]


class RelayTable:
    """Per-node relay state: for each topic, a parent toward the rendezvous
    and the set of children away from it."""

    __slots__ = ("address", "parent", "children")

    def __init__(self, address: int) -> None:
        self.address = address
        self.parent: Dict[int, int] = {}
        self.children: Dict[int, Set[int]] = {}

    # ------------------------------------------------------------------
    def on_tree(self, topic: int) -> bool:
        """True iff this node participates in the topic's relay tree."""
        return topic in self.parent or topic in self.children

    def tree_neighbors(self, topic: int) -> List[int]:
        """All tree-adjacent addresses for the topic (parent + children)."""
        out: List[int] = []
        p = self.parent.get(topic)
        if p is not None:
            out.append(p)
        out.extend(self.children.get(topic, ()))
        return out

    def set_parent(self, topic: int, parent: int) -> None:
        self.parent[topic] = parent

    def add_child(self, topic: int, child: int) -> None:
        self.children.setdefault(topic, set()).add(child)

    def drop_topic(self, topic: int) -> None:
        self.parent.pop(topic, None)
        self.children.pop(topic, None)

    def broken_parents(self, reachable) -> List[int]:
        """Topics whose parent pointer fails ``reachable(self, parent)``.

        These are the branches severed by a crash or partition: events can
        no longer flow from this node toward the rendezvous, so the
        topic's path must be repaired (``VitisProtocol.repair_relays``).
        """
        return [
            t for t, p in self.parent.items() if not reachable(self.address, p)
        ]

    def prune_children(self, reachable) -> int:
        """Drop child pointers failing ``reachable(self, child)``; returns
        the number removed.  A lost child severs only the subtree below it
        — the child's own broken parent pointer triggers that repair."""
        removed = 0
        for t in list(self.children):
            kids = self.children[t]
            dead = {c for c in kids if not reachable(self.address, c)}
            if dead:
                kids -= dead
                removed += len(dead)
                if not kids:
                    del self.children[t]
        return removed

    def clear(self) -> None:
        self.parent.clear()
        self.children.clear()


class RelayStats:
    """Aggregate bookkeeping about the installed relay infrastructure,
    used by tests and the ablation benchmarks."""

    def __init__(self) -> None:
        self.paths_installed = 0
        self.total_path_hops = 0
        self.grafts = 0  # installs that stopped early on an existing branch
        self.failed_lookups = 0
        self.rendezvous: Dict[int, int] = {}  # topic -> rendezvous address

    def reset(self) -> None:
        self.paths_installed = 0
        self.total_path_hops = 0
        self.grafts = 0
        self.failed_lookups = 0
        self.rendezvous.clear()

    def as_dict(self) -> Dict[str, int]:
        """Scalar summary — the payload of the ``relay_install`` trace
        event (``repro.obs``)."""
        return {
            "paths": self.paths_installed,
            "hops": self.total_path_hops,
            "grafts": self.grafts,
            "failed_lookups": self.failed_lookups,
            "topics": len(self.rendezvous),
        }


def install_path(
    topic: int,
    lookup: LookupResult,
    tables: Dict[int, RelayTable],
    stats: Optional[RelayStats] = None,
    on_hop=None,
) -> bool:
    """Install one gateway's relay path into the per-node tables.

    ``lookup.path`` runs gateway → … → rendezvous.  Walking from the
    gateway, each hop records its parent (next node) and each next node
    records the child (previous node); the walk stops as soon as it meets a
    node that already has a parent for the topic (graft).

    ``on_hop(u, v)``, when given, is called for every edge actually
    installed (grafted walks stop early, so the callback sees exactly the
    installed prefix) — the tracing layer uses it to record the gateway's
    ``RequestRelay`` walk as lookup spans.

    Returns True if the path was installed (possibly trivially: a gateway
    that *is* the rendezvous installs nothing but is still connected).
    """
    if not lookup.success or not lookup.path:
        if stats is not None:
            stats.failed_lookups += 1
        return False

    path = lookup.path
    if stats is not None:
        stats.paths_installed += 1
        stats.total_path_hops += len(path) - 1
        # First writer wins; disagreement between concurrent lookups is
        # visible as distinct rendezvous entries (tests assert consistency
        # after convergence).
        stats.rendezvous.setdefault(topic, path[-1])

    for i in range(len(path) - 1):
        u, v = path[i], path[i + 1]
        tu = tables[u]
        if topic in tu.parent:
            if stats is not None:
                stats.grafts += 1
            return True  # grafted onto an existing branch
        tu.set_parent(topic, v)
        tables[v].add_child(topic, u)
        if on_hop is not None:
            on_hop(u, v)
    return True


def clear_topic(topic: int, tables: Iterable[RelayTable]) -> None:
    """Remove all relay state of one topic across the population."""
    for t in tables:
        t.drop_topic(topic)
