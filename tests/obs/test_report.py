"""Tests for the telemetry report rendering."""

from repro.obs import Telemetry
from repro.obs.report import phase_rows, trace_summary_rows


class TestReport:
    def _telemetry(self):
        tel = Telemetry()
        tel.metrics.counter("lookups_total", system="vitis").inc(5)
        tel.metrics.gauge("live_nodes").set(80)
        tel.metrics.histogram("lookup_hops").observe(3)
        with tel.phase("run"):
            pass
        return tel

    def test_phase_rows(self):
        rows = phase_rows(self._telemetry())
        assert [r["phase"] for r in rows] == ["run"]

    def test_trace_summary_counts_by_type(self):
        events = [{"ev": "lookup"}, {"ev": "lookup"}, {"ev": "delivery"}]
        rows = {r["event"]: r["count"] for r in trace_summary_rows(events)}
        assert rows == {"lookup": 2, "delivery": 1}
