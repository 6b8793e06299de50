"""Tests for the delivery auditor (repro.obs.audit)."""

from repro.obs.audit import audit_trace, audit_trees, event_trees
from repro.obs.spans import build_span_trees


def span(trace, sid, kind, src, dst, hop, parent=None, **extra):
    e = {"ev": "span", "trace": trace, "span": sid, "kind": kind,
         "src": src, "dst": dst, "hop": hop}
    if parent is not None:
        e["parent"] = parent
    e.update(extra)
    return e


def miss(trace, addr, cause, **extra):
    return dict({"ev": "miss", "trace": trace, "addr": addr, "cause": cause}, **extra)


def healthy_event(trace="e0", subs=2):
    return [
        span(trace, 0, "publish", 0, 0, 0, topic=7, event=1, publisher=0, subs=subs),
        span(trace, 1, "flood", 0, 1, 1, parent=0),
        span(trace, 2, "deliver", 1, 1, 1, parent=1),
        span(trace, 3, "flood", 1, 2, 2, parent=1),
        span(trace, 4, "deliver", 2, 2, 2, parent=3),
    ]


class TestAudit:
    def test_healthy_event_passes(self):
        report = audit_trace(healthy_event())
        assert report.ok
        assert report.n_events == 1
        assert report.expected_total == 2 and report.delivered_total == 2
        assert sum(e.expected - e.delivered for e in report.events) == 0
        assert report.unexplained_total == 0
        assert report.failures() == []

    def test_attributed_miss_passes(self):
        events = healthy_event(subs=3) + [miss("e0", 5, "faulted_link", src=1, dst=5)]
        report = audit_trace(events)
        assert report.ok
        assert sum(e.expected - e.delivered for e in report.events) == 1
        assert report.cause_totals() == {"faulted_link": 1}

    def test_explicit_unexplained_miss_fails(self):
        events = healthy_event(subs=3) + [miss("e0", 5, "unexplained")]
        report = audit_trace(events)
        assert not report.ok
        assert report.unexplained_total == 1
        assert report.cause_totals() == {}

    def test_unattributed_gap_counts_as_unexplained(self):
        # subs=4, 2 delivered, only 1 miss event: one subscriber vanished.
        events = healthy_event(subs=4) + [miss("e0", 5, "dead_node")]
        report = audit_trace(events)
        assert not report.ok
        assert report.unexplained_total == 1
        assert report.cause_totals() == {"dead_node": 1}

    def test_incomplete_tree_fails(self):
        events = [e for e in healthy_event() if e.get("span") != 1]
        report = audit_trace(events)
        assert not report.ok
        assert report.n_incomplete == 1
        (bad,) = report.failures()
        assert not bad.complete

    def test_install_traces_excluded(self):
        install = [
            span("i0", 0, "lookup", 3, 3, 0, topic=7, gateway=3),
            span("i0", 1, "lookup", 3, 9, 1, parent=0),
        ]
        trees = build_span_trees(healthy_event() + install)
        assert len(trees) == 2
        assert len(event_trees(trees)) == 1
        report = audit_trees(trees)
        assert report.n_events == 1 and report.ok

    def test_per_event_fields(self):
        events = healthy_event() + [
            dict(e, trial="rvr/2.0") for e in healthy_event("e1")
        ]
        report = audit_trace(events)
        assert report.n_events == 2
        by_trial = {e.trial: e for e in report.events}
        assert by_trial[None].trace_id == "e0"
        assert by_trial["rvr/2.0"].trace_id == "e1"
        assert all(e.topic == 7 and e.publisher == 0 for e in report.events)

    def test_empty_trace(self):
        report = audit_trace([])
        assert report.ok and report.n_events == 0
