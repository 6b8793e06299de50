"""Causal span tracing through dissemination (the repro.obs.spans layer).

Two concerns, tested separately:

- **Fidelity** — on a hand-built 3-cluster topology with a known relay
  tree, the reconstructed span tree must match the planted
  flood/lookup/relay/rendezvous/delivery hops *exactly*, including under
  an injected link fault (partition), and the nodes' own flood over
  the same topology must reconstruct the same tree.
- **Zero cost off** — tracing must never change results: untraced runs
  have no span machinery at all, and a traced run's dissemination
  records are identical to an untraced run's, even with a fault model
  attached (attribution consumes no RNG).
"""

import io
import json
import random

import pytest

from repro import obs
from repro.core.config import VitisConfig
from repro.core.dissemination import disseminate
from repro.core.protocol import VitisProtocol
from repro.faults import MessageLoss, Partition
from repro.obs.audit import audit_trace
from repro.obs.spans import build_span_trees

TOPIC = 0


def captured_telemetry():
    buf = io.StringIO()
    tel = obs.Telemetry(trace=obs.TraceWriter(buf, flush_every=1))
    return tel, buf


def events_of(buf):
    return [json.loads(line) for line in buf.getvalue().splitlines()]


def planted_protocol(telemetry=None):
    """Three 3-node clusters of one topic, joined by a planted relay tree.

    Clusters (chains): A = 0-1-2, B = 3-4-5, C = 6-7-8; node 9 is an
    uninterested relay serving as rendezvous; node 10 is an uninterested
    bystander.  Relay tree: gateways 0, 3, 6, each with parent 9.
    """
    subs = {a: {TOPIC} for a in range(9)}
    subs[9] = set()
    subs[10] = set()
    p = VitisProtocol(
        subs, VitisConfig(rt_size=6), seed=3, election_every=0, relay_every=0,
        telemetry=telemetry,
    )
    adj = {0: {1}, 1: {0, 2}, 2: {1}, 3: {4}, 4: {3, 5}, 5: {4},
           6: {7}, 7: {6, 8}, 8: {7}}
    p.cluster_adjacency = lambda topic: adj
    for gw in (0, 3, 6):
        p.nodes[gw].relay.set_parent(TOPIC, 9)
        p.nodes[9].relay.add_child(TOPIC, gw)
    p.relay_stats.rendezvous[TOPIC] = 9
    return p


def edges_of(tree):
    """Canonical successful non-root, non-deliver spans as
    ``(kind, src, dst, hop)`` tuples."""
    return sorted(
        (s.kind, s.src, s.dst, s.hop)
        for s in tree.spans.values()
        if s.parent is not None and s.kind != "deliver" and s.ok
    )


def deliveries_of(tree):
    return sorted((s.dst, s.hop) for s in tree.deliveries())


PLANTED_EDGES = sorted([
    ("flood", 2, 1, 1),
    ("flood", 1, 0, 2),
    ("relay", 0, 9, 3),
    ("rendezvous", 9, 3, 4),
    ("rendezvous", 9, 6, 4),
    ("flood", 3, 4, 5),
    ("flood", 4, 5, 6),
    ("flood", 6, 7, 5),
    ("flood", 7, 8, 6),
])

PLANTED_DELIVERIES = sorted(
    [(1, 1), (0, 2), (3, 4), (6, 4), (4, 5), (5, 6), (7, 5), (8, 6)]
)


class TestPlantedTopology:
    def test_fast_path_matches_planted_tree_exactly(self):
        tel, buf = captured_telemetry()
        p = planted_protocol(tel)
        rec = disseminate(p, TOPIC, publisher=2, event_id=7)
        assert rec.n_delivered == rec.n_subscribers
        trees = build_span_trees(events_of(buf))
        assert len(trees) == 1
        tree = next(iter(trees.values()))
        assert tree.trace_id == rec.trace_id
        assert tree.is_complete()
        assert tree.meta == {"topic": TOPIC, "event": 7, "publisher": 2, "subs": 8}
        root = tree.spans[tree.root]
        assert root.kind == "publish" and root.src == 2 and root.hop == 0
        assert edges_of(tree) == PLANTED_EDGES
        assert deliveries_of(tree) == PLANTED_DELIVERIES
        assert tree.misses == []

    def test_parent_chain_follows_topology(self):
        tel, buf = captured_telemetry()
        p = planted_protocol(tel)
        disseminate(p, TOPIC, publisher=2)
        tree = next(iter(build_span_trees(events_of(buf)).values()))
        # Path to the deepest delivery in cluster B crosses every layer.
        deep = [s for s in tree.deliveries() if s.dst == 5][0]
        kinds = [s.kind for s in tree.path_to_root(deep.span)]
        assert kinds == [
            "publish", "flood", "flood", "relay", "rendezvous",
            "flood", "flood", "deliver",
        ]

    def test_injection_lookup_hops(self):
        """A publisher off the clusters and off the tree injects by a
        rendezvous lookup; the planted path shows up as lookup spans."""
        tel, buf = captured_telemetry()
        p = planted_protocol(tel)
        p.publisher_targets = lambda pub, topic: (set(), [10, 9])
        rec = disseminate(p, TOPIC, publisher=10)
        assert rec.n_delivered == rec.n_subscribers
        tree = next(iter(build_span_trees(events_of(buf)).values()))
        assert ("lookup", 10, 9, 1) in edges_of(tree)
        assert sorted(
            (s.src, s.dst) for s in tree.spans.values() if s.kind == "rendezvous"
        ) == [(9, 0), (9, 3), (9, 6)]
        # All nine subscribers delivered (publisher 10 subscribes to nothing).
        assert len(tree.deliveries()) == 9

    def test_network_path_reconstructs_same_tree(self):
        """The planted topology as routing-table edges on a
        :class:`DeployedVitis`, learned by one round of profile messages
        (each chain edge planted in one direction, the other end learns
        it by requests): the nodes' own flood reconstructs the planted
        span tree, kinds included, exactly as the fast path does."""
        from repro.core.deployment import DeployedVitis
        from tests.core.test_node_flood import link, node_flood, outcome, refresh

        tel, buf = captured_telemetry()
        subs = [{TOPIC}] * 9 + [set(), set()]
        d = DeployedVitis(subs, VitisConfig(rt_size=6), seed=3, auto_start=False, telemetry=tel)
        for node in d.nodes.values():
            node.join([])
        for a, b in ((0, 1), (1, 2), (3, 4), (4, 5), (6, 7), (7, 8)):
            link(d, a, b)
        for gw in (0, 3, 6):
            d.nodes[gw].relay.set_parent(TOPIC, 9)
            d.nodes[9].relay.add_child(TOPIC, gw)
        d.relay_stats.rendezvous[TOPIC] = 9
        refresh(d)

        rec = disseminate(d, TOPIC, publisher=2)
        assert node_flood(d, TOPIC, 2, event_id=7, trace="node") == outcome(rec)
        trees = {t.trace_id: t for t in build_span_trees(events_of(buf)).values()}
        fast, node = trees[rec.trace_id], trees["node"]
        for tree in (fast, node):
            assert tree.is_complete()
            assert edges_of(tree) == PLANTED_EDGES
            assert deliveries_of(tree) == PLANTED_DELIVERIES
        assert fast.meta == node.meta | {"event": 0}

    def test_partitioned_cluster_attributed_exactly(self):
        """Sever cluster C from the rest: its three subscribers miss with
        cause ``partition`` and the planted blocking edge 9 → 6."""
        tel, buf = captured_telemetry()
        p = planted_protocol(tel)
        p.attach_faults(Partition([{0, 1, 2, 3, 4, 5, 9, 10}, {6, 7, 8}]))
        rec = disseminate(p, TOPIC, publisher=2)
        assert sorted(rec.subscribers - set(rec.delivered_hops)) == [6, 7, 8]
        tree = next(iter(build_span_trees(events_of(buf)).values()))
        assert tree.is_complete()
        # The reachable side of the planted tree is intact.
        reachable = [e for e in PLANTED_EDGES if e[2] not in (6, 7, 8)]
        assert edges_of(tree) == reachable
        # The severed edge shows up as a failure span...
        (failure,) = [s for s in tree.spans.values() if s.status is not None]
        assert (failure.src, failure.dst) == (9, 6)
        assert failure.status == "partition"
        # ... and every miss is attributed to it (or to the cut-off chain).
        assert sorted(m["addr"] for m in tree.misses) == [6, 7, 8]
        assert all(m["cause"] == "partition" for m in tree.misses)
        blocked = [m for m in tree.misses if m["addr"] == 6][0]
        assert (blocked["src"], blocked["dst"]) == (9, 6)

    def test_dead_subtree_attributed_to_dead_node(self):
        tel, buf = captured_telemetry()
        p = planted_protocol(tel)
        p.leave(3)
        rec = disseminate(p, TOPIC, publisher=2)
        assert sorted(rec.subscribers - set(rec.delivered_hops)) == [4, 5]
        tree = next(iter(build_span_trees(events_of(buf)).values()))
        (failure,) = [s for s in tree.spans.values() if s.status is not None]
        assert (failure.src, failure.dst) == (9, 3)
        assert failure.status == "dead_node"
        assert sorted(m["addr"] for m in tree.misses) == [4, 5]
        assert all(m["cause"] == "dead_node" for m in tree.misses)

    def test_audit_passes_on_planted_runs(self):
        tel, buf = captured_telemetry()
        p = planted_protocol(tel)
        disseminate(p, TOPIC, publisher=2, event_id=0)
        p.attach_faults(Partition([{0, 1, 2, 3, 4, 5, 9, 10}, {6, 7, 8}]))
        disseminate(p, TOPIC, publisher=2, event_id=1)
        report = audit_trace(events_of(buf))
        assert report.n_events == 2
        assert report.ok
        assert report.cause_totals() == {"partition": 3}


class TestZeroCostOff:
    """Tracing disabled → byte-identical results; enabled → same results."""

    FIELDS = (
        "delivered_hops", "interested_msgs", "relay_msgs", "faults",
        "retries", "shed", "deferred",
    )

    def record_fields(self, rec):
        return {f: getattr(rec, f) for f in self.FIELDS}

    def test_untraced_record_has_no_trace_id(self):
        rec = disseminate(planted_protocol(), TOPIC, publisher=2)
        assert rec.trace_id is None

    def test_traced_equals_untraced_perfect_transport(self):
        tel, _ = captured_telemetry()
        traced = disseminate(planted_protocol(tel), TOPIC, publisher=2)
        plain = disseminate(planted_protocol(), TOPIC, publisher=2)
        assert self.record_fields(traced) == self.record_fields(plain)

    def test_traced_equals_untraced_under_faults(self):
        """Attribution must not consume fault RNG: same loss model seed →
        identical drops, deliveries and counters either way."""
        results = []
        for telemetry in (None, captured_telemetry()[0]):
            p = planted_protocol(telemetry)
            p.attach_faults(MessageLoss(0.4, random.Random(99)))
            recs = [
                self.record_fields(disseminate(p, TOPIC, publisher=2, event_id=i))
                for i in range(10)
            ]
            results.append(recs)
        assert results[0] == results[1]

    def test_traced_equals_untraced_full_protocol_run(self):
        """Same seed, cycles and publishes: every dissemination record of
        a traced converged run matches the untraced run field-for-field."""

        def run(telemetry):
            from tests.conftest import small_subscriptions

            p = VitisProtocol(
                small_subscriptions(), VitisConfig(rt_size=10, n_sw_links=1),
                seed=11, election_every=0, relay_every=0, telemetry=telemetry,
            )
            p.run_cycles(20)
            p.finalize()
            out = []
            for topic in p.topics()[:20]:
                subs = sorted(p.subscribers(topic))
                if not subs:
                    continue
                rec = disseminate(p, topic, subs[0], event_id=topic)
                out.append(self.record_fields(rec))
            return out, p.relay_stats.as_dict()

        plain = run(None)
        traced = run(captured_telemetry()[0])
        assert plain == traced


class TestConvergedRunCompleteness:
    def test_every_event_reconstructs_and_reconciles(self, small_subs):
        tel, buf = captured_telemetry()
        p = VitisProtocol(
            small_subs, VitisConfig(rt_size=10, n_sw_links=1),
            seed=42, election_every=0, relay_every=0, telemetry=tel,
        )
        p.run_cycles(30)
        p.finalize()
        for topic in p.topics()[:30]:
            subs = sorted(p.subscribers(topic))
            if subs:
                disseminate(p, topic, subs[0], event_id=topic)
        report = audit_trace(events_of(buf))
        assert report.n_events > 0
        assert report.ok, [vars(e) for e in report.failures()]
        assert report.n_incomplete == 0

    def test_install_traces_recorded(self, small_subs):
        tel, buf = captured_telemetry()
        p = VitisProtocol(
            small_subs, VitisConfig(rt_size=10, n_sw_links=1),
            seed=42, election_every=0, relay_every=0, telemetry=tel,
        )
        p.run_cycles(30)
        p.finalize()  # installs relay paths under tracing
        trees = build_span_trees(events_of(buf))
        installs = [
            t for t in trees.values() if t.trace_id.startswith("i")
        ]
        assert installs
        for t in installs:
            assert t.is_complete()
            root = t.spans[t.root]
            assert root.kind == "lookup"
            assert "topic" in t.meta and "gateway" in t.meta
            # Install walks are chains: each span has at most one child.
            assert all(len(c) <= 1 for c in t.children.values())
