"""Collector stream handling: truncation tolerance, metrics-frame
ingestion, and trace/store separation."""

import asyncio
import json
import logging

from repro.net.collector import Collector
from repro.net.wire import encode_metrics_frame


def run_session(payloads, store=None):
    """Start a collector, send each ``payloads`` bytes blob on its own
    connection, close abruptly (no clean EOF record), return collector."""
    async def go():
        collector = await Collector.start(store=store)
        host, port = collector.local_addr
        for blob in payloads:
            _, writer = await asyncio.open_connection(host, port)
            writer.write(blob)
            await writer.drain()
            writer.close()
            await writer.wait_closed()
        await collector.wait_quiescent(idle=0.2, timeout=10.0)
        await collector.close()
        return collector
    return asyncio.run(go())


def record_line(**kw):
    return (json.dumps(kw) + "\n").encode()


def metrics_line(proc=7001, seq=0, sent=1.0):
    frame = encode_metrics_frame(
        proc, seq, 0.5, 100.0 + seq,
        {"counters": [["live_sent_total", [], sent]]},
    )
    return (json.dumps(frame) + "\n").encode()


class TestTruncation:
    def test_killed_mid_frame_keeps_complete_records(self, caplog):
        good = record_line(ev="span", proc=3, kind="publish")
        # The sender died mid-write: invalid JSON, no trailing newline.
        torn = b'{"ev": "span", "proc": 3, "kind": "flo'
        with caplog.at_level(logging.WARNING, logger="repro.net.collector"):
            collector = run_session([good + good + torn])
        assert len(collector.records) == 2
        assert collector.malformed == 1
        assert len(collector.truncated) == 1
        peer, offset = collector.truncated[0]
        assert offset == 2 * len(good)
        msg = "\n".join(r.getMessage() for r in caplog.records)
        assert "truncated trailing frame" in msg
        assert "node 3" in msg          # the sender's overlay address
        assert f"byte offset {offset}" in msg

    def test_complete_record_missing_final_newline_is_kept(self):
        good = record_line(ev="span", proc=4, kind="publish")
        tail = json.dumps({"ev": "span", "proc": 4, "kind": "deliver"}).encode()
        collector = run_session([good + tail])
        assert len(collector.records) == 2
        assert collector.malformed == 0
        assert collector.truncated == []

    def test_record_larger_than_64k_survives_chunked_reads(self):
        big = record_line(ev="span", proc=5, kind="publish",
                          pad="x" * 200_000)
        collector = run_session([big])
        assert len(collector.records) == 1
        assert collector.records[0]["pad"] == "x" * 200_000


class TestHostileRecords:
    def test_record_with_a_non_int_proc_is_counted_and_the_stream_survives(self):
        # ``proc`` is a dict key and a sort key: an unhashable one costs
        # its own record, never the rest of the connection's stream.
        blob = (record_line(ev="span", proc=3, kind="publish") +
                record_line(ev="span", proc=[1]) +
                record_line(ev="span", proc=3, kind="flood") +
                record_line(ev="span", proc=3, kind="deliver"))
        collector = run_session([blob])
        assert [r.get("kind") for r in collector.records] == [
            "publish", "flood", "deliver"]
        assert collector.malformed == 1

    def test_snapshots_with_unsortable_procs_do_not_break_the_merge(self):
        from repro.obs import Telemetry

        snapshot = {"metrics": {"counters": [["x", [], 1.0]]}}
        collector = run_session([
            record_line(ev="metrics_snapshot", proc=2, snapshot=snapshot) +
            record_line(ev="metrics_snapshot", proc={"a": 1}, snapshot=snapshot) +
            record_line(ev="metrics_snapshot", proc="7", snapshot=snapshot) +
            record_line(ev="metrics_snapshot", proc=1, snapshot=snapshot)
        ])
        assert sorted(collector.snapshots) == [1, 2]
        assert collector.malformed == 2
        merged = Telemetry()
        collector.merge_into(merged)
        assert merged.metrics.counter("x").value == 2.0


class TestMetricsFrames:
    def test_frames_feed_store_but_never_records(self):
        blob = (metrics_line(seq=0, sent=5.0) +
                metrics_line(seq=1, sent=3.0) +
                record_line(ev="span", proc=7001, kind="publish"))
        collector = run_session([blob])
        # Trace inertness: the merged trace is frame-free.
        assert [r["ev"] for r in collector.records] == ["span"]
        totals = collector.store.nodes[7001].totals
        assert totals.counter("live_sent_total").value == 8.0
        assert collector.store.nodes[7001].frames == 2

    def test_bad_frame_version_counted_and_dropped(self):
        frame = encode_metrics_frame(1, 0, 0.0, 100.0, {"counters": []})
        frame["mv"] = 999
        collector = run_session([
            (json.dumps(frame) + "\n").encode() + metrics_line(proc=1, seq=1)
        ])
        assert collector.store.dropped_frames == 1
        assert collector.store.nodes[1].frames == 1
        assert collector.records == []

    def test_snapshot_records_still_captured(self):
        blob = record_line(ev="metrics_snapshot", proc=9,
                           snapshot={"metrics": {"counters": []}})
        collector = run_session([blob])
        assert 9 in collector.snapshots
        assert collector.records == []


class TestSwimTee:
    def test_swim_events_land_in_trace_and_store(self):
        blob = record_line(ev="swim", proc=1, t=0.4, ts=100.4,
                           peer=2, prev="alive", state="suspect")
        collector = run_session([blob])
        # In the merged trace (for the post-run timeline)...
        assert [r["ev"] for r in collector.records] == ["swim"]
        # ...and in the live store's timeline.
        (t, proc, peer, prev, state), = collector.store.swim_events
        assert (proc, peer, prev, state) == (1, 2, "alive", "suspect")

    def test_malformed_swim_record_still_traced(self):
        blob = record_line(ev="swim", proc=1)  # no peer/prev/state
        collector = run_session([blob])
        assert len(collector.records) == 1
        assert len(collector.store.swim_events) == 0
