"""Tests for the time-series recorder."""

import pytest

from repro.sim.monitors import TimeSeries


class TestRecording:
    def test_record_and_read(self):
        ts = TimeSeries()
        ts.record("hit", 1.0, 0.9)
        ts.record("hit", 2.0, 1.0)
        assert ts.series("hit") == [(1.0, 0.9), (2.0, 1.0)]
        assert len(ts) == 2

    def test_time_order_enforced(self):
        ts = TimeSeries()
        ts.record("x", 5.0, 1)
        with pytest.raises(ValueError):
            ts.record("x", 4.0, 2)

    def test_equal_times_allowed(self):
        ts = TimeSeries()
        ts.record("x", 5.0, 1)
        ts.record("x", 5.0, 2)
        assert len(ts.series("x")) == 2

    def test_names_sorted(self):
        ts = TimeSeries()
        ts.record("b", 0, 1)
        ts.record("a", 0, 1)
        assert ts.names() == ["a", "b"]

    def test_missing_series(self):
        ts = TimeSeries()
        assert ts.series("nope") == []
        assert ts.latest_time("nope") is None

    def test_latest_time(self):
        ts = TimeSeries()
        ts.record("x", 3.0, 7.0)
        ts.record("x", 5.0, 9.0)
        assert ts.latest_time("x") == 5.0


class TestRows:
    def test_alignment_with_gaps(self):
        ts = TimeSeries()
        ts.record("a", 1.0, 10)
        ts.record("a", 2.0, 20)
        ts.record("b", 2.0, 200)
        rows = ts.to_rows()
        assert rows == [
            {"time": 1.0, "a": 10.0, "b": None},
            {"time": 2.0, "a": 20.0, "b": 200.0},
        ]

    def test_duplicate_timestamps_emit_one_row_each(self):
        ts = TimeSeries()
        ts.record("a", 1.0, 10)
        ts.record("a", 1.0, 11)
        ts.record("a", 1.0, 12)
        ts.record("b", 1.0, 100)
        rows = ts.to_rows()
        # One row per occurrence, k-th duplicates aligned across series.
        assert rows == [
            {"time": 1.0, "a": 10.0, "b": 100.0},
            {"time": 1.0, "a": 11.0, "b": None},
            {"time": 1.0, "a": 12.0, "b": None},
        ]

    def test_renders_with_reporting(self):
        from repro.experiments.reporting import format_table

        ts = TimeSeries()
        ts.record("hit", 0.0, 1.0)
        out = format_table(ts.to_rows())
        assert "hit" in out
