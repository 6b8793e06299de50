"""Tests for the Telemetry facade, the no-op backend and ambient scoping."""

import io
import json

from repro import obs
from repro.core.config import VitisConfig
from repro.core.protocol import VitisProtocol
from repro.experiments.runner import build_vitis, measure
from repro.obs import NULL, NullTelemetry, Telemetry
from tests.conftest import small_subscriptions


class TestTelemetryFacade:
    def test_event_routes_to_trace(self):
        buf = io.StringIO()
        tel = Telemetry(trace=buf)
        assert tel.enabled and tel.tracing
        tel.event("lookup", t=1.0, hops=2)
        tel.close()
        assert json.loads(buf.getvalue())["hops"] == 2

    def test_event_without_trace_is_noop(self):
        tel = Telemetry()
        assert tel.enabled and not tel.tracing
        tel.event("lookup", t=1.0, hops=2)  # must not raise

    def test_phase_exit_emits_trace_event(self):
        buf = io.StringIO()
        tel = Telemetry(trace=buf)
        with tel.phase("converge"):
            pass
        tel.close()
        ev = json.loads(buf.getvalue())
        assert ev["ev"] == "phase"
        assert ev["phase"] == "converge"
        assert ev["dur_s"] >= 0

    def test_metrics_dump_shape(self):
        tel = Telemetry()
        tel.metrics.counter("c").inc()
        with tel.phase("p"):
            pass
        tel.series.record("probe", 0.0, 1.0)
        dump = tel.metrics_dump()
        json.dumps(dump)
        assert dump["metrics"]["counters"] == {"c": 1.0}
        assert "p" in dump["phases"]
        assert dump["series"]["probe"] == [(0.0, 1.0)]

    def test_progress_throttled_and_lazy(self):
        stream = io.StringIO()
        tel = Telemetry(progress=True, progress_interval=3600.0,
                        progress_stream=stream)
        calls = []
        tel.progress(lambda: calls.append(1) or "first")
        tel.progress(lambda: calls.append(1) or "second")  # throttled
        assert stream.getvalue() == "[progress] first\n"
        assert calls == [1]  # the throttled thunk was never evaluated


class TestNullTelemetry:
    def test_singleton_disabled(self):
        assert isinstance(NULL, NullTelemetry)
        assert not NULL.enabled
        assert not NULL.tracing
        assert NULL.trace is None

    def test_all_operations_are_noops_with_zero_output(self):
        NULL.event("lookup", t=1.0, hops=3)
        with NULL.phase("anything"):
            pass
        NULL.progress(lambda: 1 / 0)  # thunk must never run
        NULL.close()
        assert len(NULL.phases) == 0
        assert NULL.metrics_dump() == {"metrics": {}, "phases": {}, "series": {}}

    def test_instrumented_run_with_null_records_nothing(self):
        p = VitisProtocol(
            small_subscriptions(),
            VitisConfig(rt_size=10, n_sw_links=1),
            seed=7,
            election_every=0,
            relay_every=0,
        )
        assert p.telemetry is NULL
        p.run_cycles(5)
        p.finalize()
        measure(p, n_events=20, seed=7)
        assert len(NULL.metrics) == 0
        assert len(NULL.phases) == 0
        assert len(NULL.series) == 0


class TestScope:
    def test_current_defaults_to_null(self):
        assert obs.current() is NULL

    def test_scope_installs_and_restores(self):
        tel = Telemetry()
        with obs.scope(tel) as installed:
            assert installed is tel
            assert obs.current() is tel
        assert obs.current() is NULL

    def test_scope_restores_on_exception(self):
        tel = Telemetry()
        try:
            with obs.scope(tel):
                raise RuntimeError("boom")
        except RuntimeError:
            pass
        assert obs.current() is NULL

    def test_protocol_picks_up_ambient_telemetry(self):
        tel = Telemetry(trace=io.StringIO())
        with obs.scope(tel):
            p = build_vitis(
                small_subscriptions(),
                VitisConfig(rt_size=10, n_sw_links=1),
                seed=7,
                min_cycles=5,
                max_cycles=20,
            )
            measure(p, n_events=20, seed=7)
        tel.trace.flush()
        assert p.telemetry is tel
        dump = tel.metrics_dump()
        counters = dump["metrics"]["counters"]
        assert counters["engine_cycles_total"] >= 5
        assert counters["events_published_total{system=vitis}"] == 20
        assert "gossip_ps_exchanges_total{system=vitis}" in counters
        for phase in ("build", "converge", "finalize", "measure"):
            assert tel.phases._calls.get(phase, 0) == 1
        # The trace carries the four headline event types.
        events = [json.loads(l) for l in tel.trace._fh.getvalue().splitlines()]
        kinds = {e["ev"] for e in events}
        assert {"gossip_exchange", "lookup", "delivery", "cycle"} <= kinds
