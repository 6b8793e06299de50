"""The collector's rolling per-node metrics time-series store."""

import json

import pytest

from repro.net.store import STORE_SCHEMA, MetricsStore
from repro.obs.registry import MetricsRegistry
from repro.obs.report import live_report


def frame(sent=5.0):
    return {
        "counters": [
            ["live_sent_total", [], sent],
            ["live_delivered_events", [], 0.0],
        ],
        "gauges": [
            ["live_queue_depth", [], 2.0],
            ["swim_suspect_peers", [], 0.0],
            ["swim_dead_peers", [], 0.0],
        ],
        "histograms": [
            ["live_delivery_hops", [], {
                "buckets": [1, 2, 4], "bucket_counts": [1, 1, 0],
                "count": 2, "sum": 3.0, "min": 1.0, "max": 2.0,
            }],
        ],
    }


class TestIngest:
    def test_deltas_fold_into_cumulative_totals(self):
        store = MetricsStore()
        assert store.ingest(7001, 0, 100.0, frame(sent=5))
        assert store.ingest(7001, 1, 101.0, frame(sent=3))
        totals = store.nodes[7001].totals
        assert totals.counter("live_sent_total").value == 8.0
        assert store.nodes[7001].frames == 2

    def test_stale_or_duplicate_seq_dropped(self):
        store = MetricsStore()
        assert store.ingest(7001, 3, 100.0, frame(sent=5))
        assert not store.ingest(7001, 3, 100.1, frame(sent=99))
        assert not store.ingest(7001, 1, 100.2, frame(sent=99))
        assert store.nodes[7001].totals.counter("live_sent_total").value == 5.0
        assert store.dropped_frames == 2

    def test_samples_aligned_to_first_epoch_ts(self):
        store = MetricsStore()
        # Nodes start their monotonic clocks at wildly different
        # instants: alignment comes from the epoch ts a frame carries.
        store.ingest(1, 0, 100.0, frame())
        store.ingest(2, 0, 101.5, frame())
        assert store.nodes[1].samples[0]["t"] == 0.0
        assert store.nodes[2].samples[0]["t"] == 1.5

    def test_sample_window_is_bounded(self):
        store = MetricsStore(max_samples=4)
        for i in range(10):
            store.ingest(1, i, 100.0 + i, frame(sent=1))
        assert len(store.nodes[1].samples) == 4
        # Totals still reflect every frame, not just the window.
        assert store.nodes[1].totals.counter("live_sent_total").value == 10.0


class TestPersistence:
    def test_doc_round_trip_is_json_safe(self):
        store = MetricsStore()
        store.ingest(1, 0, 100.0, frame(sent=5))
        store.ingest(1, 1, 101.0, frame(sent=1))
        store.note_swim(1, 101.2, 2, "alive", "suspect")
        store.note_ring(101.3, 1, 2)
        store.note_expected(101.4, 6)
        doc = json.loads(json.dumps(store.to_doc()))
        assert doc["schema"] == STORE_SCHEMA
        totals = MetricsRegistry()
        totals.merge(doc["nodes"]["1"]["totals"])
        assert totals.counter("live_sent_total").value == 6.0
        assert doc["nodes"]["1"]["frames"] == 2
        (t, proc, peer, prev, state), = doc["swim"]
        assert (t, proc, peer, prev, state) == (
            pytest.approx(1.2), 1, 2, "alive", "suspect")
        (t, wrong, total), = doc["ring"]
        assert (t, wrong, total) == (pytest.approx(1.3), 1, 2)
        (t, cum), = doc["expected"]
        assert (t, cum) == (pytest.approx(1.4), 6)

    def test_live_report_rejects_wrong_schema(self):
        with pytest.raises(ValueError):
            live_report({"schema": "something/else"})
        with pytest.raises(ValueError):
            live_report([])
