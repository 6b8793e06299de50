"""Tests for causal span tracing primitives (repro.obs.spans)."""

import io
import json

from repro import obs
from repro.obs.spans import (
    CAUSE_FAULTED_LINK,
    HOP_DELIVER,
    HOP_FLOOD,
    HOP_PUBLISH,
    HOP_RELAY,
    SpanRecorder,
    build_span_trees,
    trace_key,
)


def captured_telemetry():
    buf = io.StringIO()
    tel = obs.Telemetry(trace=obs.TraceWriter(buf, flush_every=1))
    return tel, buf


def events_of(buf):
    return [json.loads(line) for line in buf.getvalue().splitlines()]


class TestSpanRecorder:
    def test_ids_are_dense_and_ordered(self):
        tel, buf = captured_telemetry()
        rec = SpanRecorder(tel, "e0", t=3.0)
        ids = [rec.root(HOP_PUBLISH, 7, topic=1)]
        ids.append(rec.hop(ids[0], HOP_FLOOD, 7, 8, 1))
        ids.append(rec.deliver(ids[1], 8, 1))
        ids.append(rec.failure(ids[0], HOP_FLOOD, 7, 9, 1, CAUSE_FAULTED_LINK))
        assert ids == [0, 1, 2, 3]
        evs = events_of(buf)
        assert [e["span"] for e in evs] == ids
        assert all(e["ev"] == "span" and e["trace"] == "e0" for e in evs)
        assert all(e["t"] == 3.0 for e in evs)

    def test_root_carries_header_fields(self):
        tel, buf = captured_telemetry()
        rec = SpanRecorder(tel, "e5", t=0.0)
        rec.root(HOP_PUBLISH, 3, topic=12, event=4, publisher=3, subs=9)
        (root,) = events_of(buf)
        assert root["topic"] == 12 and root["event"] == 4
        assert root["publisher"] == 3 and root["subs"] == 9
        assert root["hop"] == 0 and "parent" not in root

    def test_miss_event_shape(self):
        tel, buf = captured_telemetry()
        rec = SpanRecorder(tel, "e1", t=1.0)
        rec.miss(42, CAUSE_FAULTED_LINK, src=7, dst=42)
        rec.miss(43, "no_path")
        first, second = events_of(buf)
        assert first["ev"] == "miss" and first["addr"] == 42
        assert first["cause"] == CAUSE_FAULTED_LINK
        assert first["src"] == 7 and first["dst"] == 42
        assert "src" not in second and "dst" not in second

    def test_retries_field_only_when_nonzero(self):
        tel, buf = captured_telemetry()
        rec = SpanRecorder(tel, "e0", t=0.0)
        root = rec.root(HOP_PUBLISH, 0)
        rec.hop(root, HOP_FLOOD, 0, 1, 1)
        rec.hop(root, HOP_FLOOD, 0, 2, 1, retries=2)
        _, plain, retried = events_of(buf)
        assert "retries" not in plain
        assert retried["retries"] == 2


class TestBuildSpanTrees:
    def make_trace(self):
        tel, buf = captured_telemetry()
        rec = SpanRecorder(tel, "e0", t=0.0)
        root = rec.root(HOP_PUBLISH, 0, topic=5, event=1, publisher=0, subs=2)
        a = rec.hop(root, HOP_FLOOD, 0, 1, 1)
        rec.deliver(a, 1, 1)
        b = rec.hop(a, HOP_RELAY, 1, 9, 2)
        rec.failure(b, HOP_RELAY, 9, 2, 3, CAUSE_FAULTED_LINK)
        rec.miss(2, CAUSE_FAULTED_LINK, src=9, dst=2)
        return events_of(buf)

    def test_reconstruction(self):
        trees = build_span_trees(self.make_trace())
        assert set(trees) == {(None, "e0")}
        tree = trees[(None, "e0")]
        assert tree.root == 0
        assert tree.meta == {"topic": 5, "event": 1, "publisher": 0, "subs": 2}
        assert len(tree.spans) == 5
        assert [s.dst for s in tree.deliveries()] == [1]
        assert [s.status for s in tree.spans.values() if s.status is not None] == [
            CAUSE_FAULTED_LINK]
        assert len(tree.misses) == 1 and tree.misses[0]["addr"] == 2
        assert tree.is_complete()

    def test_path_to_root(self):
        tree = build_span_trees(self.make_trace())[(None, "e0")]
        deliver = tree.deliveries()[0]
        path = tree.path_to_root(deliver.span)
        assert [s.kind for s in path] == [HOP_PUBLISH, HOP_FLOOD, HOP_DELIVER]
        assert path[0].span == tree.root

    def test_missing_parent_is_incomplete(self):
        events = self.make_trace()
        events = [e for e in events if e.get("span") != 1]  # drop a mid span
        tree = build_span_trees(events)[(None, "e0")]
        assert not tree.is_complete()

    def test_trial_tags_separate_traces(self):
        events = self.make_trace()
        tagged = [dict(e, trial="vitis/0") for e in events]
        also = [dict(e, trial="vitis/1") for e in events]
        trees = build_span_trees(tagged + also)
        assert set(trees) == {("vitis/0", "e0"), ("vitis/1", "e0")}
        for tree in trees.values():
            assert tree.is_complete() and len(tree.spans) == 5

    def test_non_span_events_ignored(self):
        events = self.make_trace()
        events.insert(0, {"ev": "cycle", "cycle": 1})
        events.append({"ev": "delivery", "trace": "e0", "topic": 5})
        trees = build_span_trees(events)
        assert len(trees) == 1 and len(trees[(None, "e0")].spans) == 5

    def test_trace_key(self):
        assert trace_key({"trace": "e3"}) == (None, "e3")
        assert trace_key({"trace": "e3", "trial": "rvr/1.0"}) == ("rvr/1.0", "e3")
