"""Tests for the discrete-event engine and cycle driver."""

import pytest

from repro.sim.engine import CycleDriver, Engine, PeriodicTask


class TestEngineBasics:
    def test_starts_at_zero(self):
        assert Engine().now == 0.0

    def test_schedule_and_run(self):
        e = Engine()
        fired = []
        e.schedule(1.5, lambda: fired.append(e.now))
        e.run()
        assert fired == [1.5]
        assert e.now == 1.5

    def test_negative_delay_rejected(self):
        with pytest.raises(ValueError):
            Engine().schedule(-0.1, lambda: None)

    def test_schedule_at_past_rejected(self):
        e = Engine()
        e.schedule(2.0, lambda: None)
        e.run()
        with pytest.raises(ValueError):
            e.schedule_at(1.0, lambda: None)

    def test_fifo_within_same_instant(self):
        e = Engine()
        order = []
        for i in range(5):
            e.schedule(1.0, lambda i=i: order.append(i))
        e.run()
        assert order == [0, 1, 2, 3, 4]

    def test_time_ordering(self):
        e = Engine()
        order = []
        e.schedule(3.0, lambda: order.append(3))
        e.schedule(1.0, lambda: order.append(1))
        e.schedule(2.0, lambda: order.append(2))
        e.run()
        assert order == [1, 2, 3]

    def test_cancelled_events_skipped(self):
        e = Engine()
        fired = []
        h = e.schedule(1.0, lambda: fired.append("a"))
        e.schedule(2.0, lambda: fired.append("b"))
        h.cancelled = True
        e.run()
        assert fired == ["b"]

    def test_processed_counter(self):
        e = Engine()
        for _ in range(3):
            e.schedule(1.0, lambda: None)
        e.run()
        assert e.processed == 3

    def test_pending_excludes_cancelled(self):
        e = Engine()
        h1 = e.schedule(1.0, lambda: None)
        e.schedule(2.0, lambda: None)
        e.schedule(3.0, lambda: None)
        assert e.pending == 3
        h1.cancelled = True
        # Lazy deletion keeps the tombstone in the heap, but it is no
        # longer pending work.
        assert e.pending == 2

    def test_positional_arguments_reach_the_callback(self):
        e = Engine()
        got = []
        e.schedule(2.0, lambda *a: got.append(a), "x", 2)
        e.schedule_at(1.0, lambda *a: got.append(a), "y")
        e.schedule(3.0, lambda *a: got.append(a))
        e.run(max_events=1)
        assert got == [("y",)]
        e.run()
        assert got == [("y",), ("x", 2), ()]

    def test_handles_are_never_compared(self):
        # Heap order is (time, seq) — both in the entry, ahead of the
        # handle — so the handle itself defines no order.
        e = Engine()
        a, b = e.schedule(1.0, lambda: None), e.schedule(1.0, lambda: None)
        with pytest.raises(TypeError):
            a < b


class TestNanIsRefused:
    """``delay < 0`` and ``when < now`` are both False for NaN: an accepted
    NaN event sorts arbitrarily, and once it fires ``now`` is NaN and
    every later past-check passes."""

    def test_nan_delay_rejected(self):
        e = Engine()
        with pytest.raises(ValueError):
            e.schedule(float("nan"), lambda: None)
        assert e.pending == 0

    def test_nan_instant_rejected(self):
        e = Engine()
        e.schedule(1.0, lambda: None)
        e.run()
        with pytest.raises(ValueError):
            e.schedule_at(float("nan"), lambda: None)
        assert (e.now, e.pending) == (1.0, 0)

    def test_nan_period_rejected(self):
        e = Engine()
        with pytest.raises(ValueError):
            PeriodicTask(e, float("nan"), lambda: None)
        assert e.pending == 0

    def test_a_nan_latency_model_cannot_poison_the_clock(self):
        from repro.sim.messages import Message
        from repro.sim.network import LatencyModel, Network
        from repro.sim.node import BaseNode

        class Broken(LatencyModel):
            def delay(self, src, dst):
                return float("nan")

        e = Engine()
        net = Network(e, latency=Broken())
        for a in range(2):
            net.add(BaseNode(a)).start()
        with pytest.raises(ValueError):
            net.send(Message(src=0, dst=1))
        e.run(until=1.0)
        assert e.now == 1.0


class TestPendingCounter:
    """``Engine.pending`` is maintained incrementally — these pin the
    transitions the counter must survive."""

    def test_pending_tracks_schedule_and_fire(self):
        e = Engine()
        for i in range(4):
            e.schedule(float(i + 1), lambda: None)
        assert e.pending == 4
        e.run(until=2.0)
        assert e.pending == 2
        e.run()
        assert e.pending == 0

    def test_uncancel_restores_pending(self):
        e = Engine()
        h = e.schedule(1.0, lambda: None)
        h.cancelled = True
        assert e.pending == 0
        h.cancelled = False
        assert e.pending == 1
        e.run()
        assert e.processed == 1

    def test_repeated_cancel_is_idempotent(self):
        e = Engine()
        h = e.schedule(1.0, lambda: None)
        e.schedule(2.0, lambda: None)
        h.cancelled = True
        h.cancelled = True
        assert e.pending == 1

    def test_cancel_after_fire_is_inert(self):
        e = Engine()
        h = e.schedule(1.0, lambda: None)
        e.schedule(2.0, lambda: None)
        e.run(until=1.0)
        h.cancelled = True  # already fired; must not corrupt the count
        assert e.pending == 1

    def test_cancelled_tombstone_pop_keeps_count(self):
        e = Engine()
        h = e.schedule(1.0, lambda: None)
        e.schedule(2.0, lambda: None)
        h.cancelled = True
        e.run()  # pops the tombstone and the live event
        assert e.pending == 0
        h.cancelled = False  # detached handle: no effect on the engine
        assert e.pending == 0


class TestRunUntil:
    def test_until_is_inclusive(self):
        e = Engine()
        fired = []
        e.schedule(1.0, lambda: fired.append(1))
        e.schedule(2.0, lambda: fired.append(2))
        e.run(until=1.0)
        assert fired == [1]
        assert e.now == 1.0

    def test_clock_advances_to_horizon_without_events(self):
        e = Engine()
        e.schedule(5.0, lambda: None)
        e.run(until=3.0)
        assert e.now == 3.0
        assert e.pending == 1

    def test_events_scheduled_during_run_execute(self):
        e = Engine()
        fired = []

        def chain():
            fired.append(e.now)
            if len(fired) < 3:
                e.schedule(1.0, chain)

        e.schedule(1.0, chain)
        e.run()
        assert fired == [1.0, 2.0, 3.0]

    def test_max_events_bound(self):
        e = Engine()
        fired = []
        for _ in range(10):
            e.schedule(1.0, lambda: fired.append(1))
        e.run(max_events=4)
        assert len(fired) == 4


class TestPeriodicTask:
    def test_fires_repeatedly(self):
        e = Engine()
        fired = []
        PeriodicTask(e, 1.0, lambda: fired.append(e.now))
        e.run(until=3.5)
        assert fired == [1.0, 2.0, 3.0]

    def test_stop_cancels(self):
        e = Engine()
        fired = []
        t = PeriodicTask(e, 1.0, lambda: fired.append(e.now))
        e.run(until=2.0)
        t.stop()
        e.run(until=5.0)
        assert fired == [1.0, 2.0]

    def test_callback_false_stops(self):
        e = Engine()
        fired = []

        def cb():
            fired.append(e.now)
            return len(fired) < 2

        PeriodicTask(e, 1.0, cb)
        e.run(until=10.0)
        assert fired == [1.0, 2.0]

    def test_invalid_period(self):
        with pytest.raises(ValueError):
            PeriodicTask(Engine(), 0.0, lambda: None)


class TestCycleDriver:
    def test_cycles_advance_clock(self):
        e = Engine()
        cycles = []
        d = CycleDriver(e, cycles.append, period=1.0)
        d.run_cycles(3)
        assert cycles == [0, 1, 2]
        assert e.now == 3.0
        assert d.cycle == 3

    def test_engine_events_interleave(self):
        e = Engine()
        log = []
        d = CycleDriver(e, lambda c: log.append(("cycle", c)), period=1.0)
        e.schedule(1.5, lambda: log.append(("event", e.now)))
        d.run_cycles(3)
        assert log == [("cycle", 0), ("event", 1.5), ("cycle", 1), ("cycle", 2)]

    def test_invalid_period(self):
        with pytest.raises(ValueError):
            CycleDriver(Engine(), lambda c: None, period=-1.0)
