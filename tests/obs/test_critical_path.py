"""Tests for span-tree critical-path analysis (repro.obs.critical_path)."""

import math

from repro.obs.critical_path import (
    check_envelope,
    delivery_breakdown,
    event_path_stats,
    hop_kind_table,
    relay_hotspots,
)
from repro.obs.spans import build_span_trees


def span(trace, sid, kind, src, dst, hop, parent=None, **extra):
    e = {"ev": "span", "trace": trace, "span": sid, "kind": kind,
         "src": src, "dst": dst, "hop": hop}
    if parent is not None:
        e["parent"] = parent
    e.update(extra)
    return e


def two_branch_event():
    """publish → flood → deliver(hop 1), and
    publish → relay → rendezvous → flood → deliver(hop 3)."""
    return [
        span("e0", 0, "publish", 0, 0, 0, topic=3, event=0, publisher=0, subs=2),
        span("e0", 1, "flood", 0, 1, 1, parent=0),
        span("e0", 2, "deliver", 1, 1, 1, parent=1),
        span("e0", 3, "relay", 0, 9, 1, parent=0),
        span("e0", 4, "rendezvous", 9, 5, 2, parent=3),
        span("e0", 5, "flood", 5, 6, 3, parent=4),
        span("e0", 6, "deliver", 6, 6, 3, parent=5),
    ]


def tree_of(events):
    return next(iter(build_span_trees(events).values()))


class TestBreakdown:
    def test_delivery_breakdown_counts_kinds(self):
        tree = tree_of(two_branch_event())
        deep = [d for d in tree.deliveries() if d.hop == 3][0]
        bd = delivery_breakdown(tree, deep.span)
        assert bd.addr == 6 and bd.hops == 3
        assert (bd.flood, bd.relay, bd.rendezvous, bd.lookup) == (1, 1, 1, 0)

    def test_event_path_stats_picks_deepest(self):
        st = event_path_stats(tree_of(two_branch_event()))
        assert st.deliveries == 2
        assert sorted(st.delivery_hops) == [1, 3]
        assert st.critical is not None and st.critical.addr == 6
        assert st.flood_depth == 1
        assert st.routing_depth == 2  # relay + rendezvous on the deep branch

    def test_empty_tree(self):
        st = event_path_stats(tree_of([
            span("e0", 0, "publish", 0, 0, 0, subs=1),
        ]))
        assert st.deliveries == 0 and st.critical is None


class TestAggregates:
    def test_hop_kind_table(self):
        table = hop_kind_table([tree_of(two_branch_event())])
        assert table["flood"]["spans"] == 2
        assert table["relay"]["spans"] == 1
        assert table["rendezvous"]["spans"] == 1
        # Two delivery paths: flood counts 1 on each.
        assert table["flood"]["per_path_mean"] == 1.0
        assert table["relay"]["per_path_max"] == 1
        assert table["lookup"]["spans"] == 0

    def test_failed_spans_counted_separately(self):
        events = two_branch_event() + [
            span("e0", 7, "flood", 1, 2, 2, parent=1, status="faulted_link"),
        ]
        table = hop_kind_table([tree_of(events)])
        assert table["flood"]["spans"] == 2
        assert table["flood"]["failed"] == 1

    def test_relay_hotspots(self):
        trees = [tree_of(two_branch_event())]
        hot = relay_hotspots(trees)
        # relay span 0->9 counts for 0; rendezvous span 9->5 counts for 9.
        assert hot == [(0, 1), (9, 1)]

    def test_relay_hotspots_top_n(self):
        trees = [tree_of(two_branch_event())]
        assert len(relay_hotspots(trees, n=1)) == 1

    def test_relay_hotspots_ties_break_by_address(self):
        # One relay span forwarded by each of 9, 2 and 5 — all tied at 1.
        # The ordering must be by address, independent of span id / trace
        # insertion order, so --hotspots output is CI-fixture stable.
        events = [
            span("e0", 0, "publish", 0, 0, 0, subs=1),
            span("e0", 1, "relay", 9, 1, 1, parent=0),
            span("e0", 2, "relay", 2, 3, 1, parent=0),
            span("e0", 3, "relay", 5, 4, 1, parent=0),
        ]
        assert relay_hotspots([tree_of(events)]) == [(2, 1), (5, 1), (9, 1)]

        permuted = [
            span("e0", 0, "publish", 0, 0, 0, subs=1),
            span("e0", 1, "relay", 5, 4, 1, parent=0),
            span("e0", 2, "relay", 9, 1, 1, parent=0),
            span("e0", 3, "relay", 2, 3, 1, parent=0),
        ]
        assert relay_hotspots([tree_of(permuted)]) == \
            relay_hotspots([tree_of(events)])

    def test_relay_hotspots_render_is_fixture_stable(self):
        # The exact table trace-report prints for a tied trace — locked
        # down so CI can diff rendered hotspot output verbatim.
        from repro.experiments.reporting import format_table

        events = [
            span("e0", 0, "publish", 0, 0, 0, subs=1),
            span("e0", 1, "relay", 9, 1, 1, parent=0),
            span("e0", 2, "relay", 2, 3, 1, parent=0),
            span("e0", 3, "rendezvous", 2, 4, 2, parent=2),
        ]
        rows = [{"address": a, "relayed": c}
                for a, c in relay_hotspots([tree_of(events)])]
        text = format_table(rows, title="relay hotspots")
        assert text.splitlines() == [
            "relay hotspots",
            "address  relayed",
            "-------  -------",
            "2        2      ",
            "9        1      ",
        ]


class TestEnvelope:
    def test_within_bound(self):
        events = two_branch_event() + [
            {"ev": "gossip_exchange", "cycle": 1, "live": 64},
        ]
        env = check_envelope(events, build_span_trees(events))
        assert env is not None
        assert env.n_live == 64 and env.d == 1
        assert env.bound == math.log2(64) ** 2 + 1 + env.slack
        assert env.p99_hops == 3.0 and env.max_hops == 3
        assert env.ok

    def test_exceeded(self):
        chain = [span("e0", 0, "publish", 0, 0, 0, subs=1)]
        for i in range(1, 40):
            chain.append(span("e0", i, "relay", i - 1, i, i, parent=i - 1))
        chain.append(span("e0", 40, "deliver", 39, 39, 39, parent=39))
        chain.append({"ev": "election", "round": 1, "live": 4})
        env = check_envelope(chain, build_span_trees(chain), slack=0.0)
        assert env is not None
        assert not env.ok
        assert env.p99_hops == 39.0 and env.bound == 4.0  # log2(4)^2 + d=0

    def test_none_without_population_records(self):
        events = two_branch_event()
        assert check_envelope(events, build_span_trees(events)) is None

    def test_none_without_deliveries(self):
        events = [
            span("e0", 0, "publish", 0, 0, 0, subs=0),
            {"ev": "gossip_exchange", "cycle": 0, "live": 10},
        ]
        assert check_envelope(events, build_span_trees(events)) is None
