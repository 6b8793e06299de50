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
