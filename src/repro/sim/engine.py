"""Discrete-event scheduler and cycle driver.

Two execution styles are provided, mirroring PeerSim:

- :class:`Engine` is an event-driven scheduler (PeerSim ``edsim``): a heap of
  ``(time, sequence, handle)`` entries.  It is used for churn schedules,
  message-level dissemination and anything that needs wall-clock semantics.
- :class:`CycleDriver` reproduces cycle-driven semantics (PeerSim ``cdsim``):
  on every cycle each live node executes one protocol step, in a freshly
  shuffled order.  The driver itself runs on top of an :class:`Engine`, so
  churn events interleave with gossip cycles at well-defined times.

The gossip period maps cycles to simulated seconds (default 1 cycle = 1 s),
which is how the paper's "hit ratio measured 10 seconds after join" is
expressed in cycles.
"""

from __future__ import annotations

import heapq
import itertools
import time
from typing import Callable, List, Optional, Tuple

__all__ = [
    "Engine",
    "CycleDriver",
    "PeriodicTask",
    "DEFAULT_JITTER",
    "jittered_period",
    "start_periodic",
]


class _Event:
    """The handle of one scheduled callback.

    ``cancelled`` is a property so the owning engine's live-event counter
    stays exact without scanning the heap: setting it while the event is
    queued adjusts the count; after the event has surfaced (fired or
    lazily discarded) the engine detaches itself and further writes are
    inert.
    """

    __slots__ = ("time", "callback", "args", "_cancelled", "_engine")

    def __init__(
        self, time: float, callback: Callable[..., None], args: tuple, engine: "Engine"
    ) -> None:
        self.time = time
        self.callback = callback
        self.args = args
        self._cancelled = False
        self._engine: Optional["Engine"] = engine

    @property
    def cancelled(self) -> bool:
        return self._cancelled

    @cancelled.setter
    def cancelled(self, value: bool) -> None:
        value = bool(value)
        if value == self._cancelled:
            return
        self._cancelled = value
        if self._engine is not None:
            self._engine._live += -1 if value else 1


class Engine:
    """A minimal, fast discrete-event scheduler.

    Time is a float in simulated seconds.  Events scheduled for the same
    instant fire in scheduling order (FIFO), which keeps runs deterministic.
    """

    def __init__(self) -> None:
        #: Heap of ``(time, seq, handle)``: ``seq`` is unique, so the order
        #: is settled by C float/int comparison and never reaches the handle.
        self._queue: List[Tuple[float, int, _Event]] = []
        self._counter = itertools.count()
        self._now = 0.0
        self._processed = 0
        self._live = 0

    @property
    def now(self) -> float:
        """Current simulated time in seconds."""
        return self._now

    @property
    def pending(self) -> int:
        """Number of *live* events still queued.

        Cancelled entries stay in the heap until they surface (lazy
        deletion), so ``len(queue)`` would count tombstones; instead the
        count is maintained incrementally on schedule/cancel/pop.  O(1).
        """
        return self._live

    @property
    def processed(self) -> int:
        """Total number of events executed so far."""
        return self._processed

    def schedule(self, delay: float, callback: Callable[..., None], *args) -> _Event:
        """Schedule ``callback(*args)`` to run ``delay`` seconds from now.

        Returns a handle whose ``cancelled`` attribute may be set to skip
        the event.
        """
        if not delay >= 0:  # refuses NaN too: it would poison the clock
            raise ValueError(f"negative delay: {delay}")
        return self._push(self._now + delay, callback, args)

    def schedule_at(self, when: float, callback: Callable[..., None], *args) -> _Event:
        """Schedule ``callback(*args)`` at absolute simulated time ``when``."""
        if not when >= self._now:
            raise ValueError(f"cannot schedule in the past: {when} < {self._now}")
        return self._push(when, callback, args)

    def _push(self, when: float, callback: Callable[..., None], args: tuple) -> _Event:
        ev = _Event(when, callback, args, self)
        self._live += 1
        heapq.heappush(self._queue, (when, next(self._counter), ev))
        return ev

    def _pop(self) -> _Event:
        """Remove the head event, detaching it from the live count.

        A live head decrements the count; a cancelled head already did
        when it was cancelled.  Either way the handle goes inert so a
        late ``cancelled = True`` on a fired event cannot corrupt it.
        """
        ev = heapq.heappop(self._queue)[2]
        if not ev._cancelled:
            self._live -= 1
        ev._engine = None
        return ev

    def step(self) -> bool:
        """Execute the next event.  Returns False if the queue is empty."""
        while self._queue:
            ev = self._pop()
            if ev._cancelled:
                continue
            self._now = ev.time
            ev.callback(*ev.args)
            self._processed += 1
            return True
        return False

    def run(self, until: Optional[float] = None, max_events: Optional[int] = None) -> None:
        """Run events until the queue drains, ``until`` is reached, or
        ``max_events`` have been executed.

        ``until`` is inclusive: events stamped exactly ``until`` still fire.
        """
        executed = 0
        queue = self._queue
        heappop = heapq.heappop
        while queue:
            if max_events is not None and executed >= max_events:
                return
            when, _, ev = queue[0]
            if ev._cancelled:
                self._pop()
                continue
            if until is not None and when > until:
                break
            # Inlined _pop() and step(): the head is known live, so their
            # re-checks and frames are pure overhead on this loop.
            heappop(queue)
            self._live -= 1
            ev._engine = None
            self._now = when
            ev.callback(*ev.args)
            self._processed += 1
            executed += 1
        # Advance the clock to the horizon even when no event reached it
        # (or the queue drained early) so callers can rely on time moving.
        if until is not None and self._now < until:
            self._now = until

    def clear(self) -> None:
        """Drop all pending events (the clock is left where it is)."""
        for _, _, ev in self._queue:
            ev._engine = None
        self._queue.clear()
        self._live = 0


class PeriodicTask:
    """A repeating engine task with a fixed period.

    The task keeps rescheduling itself until :meth:`stop` is called or the
    callback returns ``False``.
    """

    def __init__(self, engine: Engine, period: float, callback: Callable[[], Optional[bool]]):
        if period <= 0:
            raise ValueError("period must be positive")
        self._engine = engine
        self._period = period
        self._callback = callback
        self._stopped = False
        self._handle = engine.schedule(period, self._fire)

    def _fire(self) -> None:
        if self._stopped:
            return
        keep = self._callback()
        if keep is False or self._stopped:
            return
        self._handle = self._engine.schedule(self._period, self._fire)

    def stop(self) -> None:
        """Cancel the task; the pending occurrence will not fire."""
        self._stopped = True
        self._handle.cancelled = True


#: Fractional width of the period band: a jittered period is drawn
#: uniformly from ``[nominal * (1 - J/2), nominal * (1 + J/2)]``.
DEFAULT_JITTER = 0.2


def jittered_period(nominal: float, rng, jitter: float = DEFAULT_JITTER) -> float:
    """One phase-jitter draw: a fixed per-node period around ``nominal``.

    Every deployed node runs on its own timer whose period is drawn once,
    at deploy time; the draw desynchronises the population (no global
    rounds) while keeping each node's cadence fixed.  Consumes exactly
    one ``rng.random()`` call — seeded deployed-mode runs depend on that.
    """
    return nominal * (1.0 + jitter * (rng.random() - 0.5))


def start_periodic(
    engine: Engine,
    nominal: float,
    rng,
    callback: Callable[[], Optional[bool]],
    jitter: float = DEFAULT_JITTER,
) -> PeriodicTask:
    """Start a simulated-clock periodic task with a jittered period; the
    first tick fires one (jittered) period from now."""
    return PeriodicTask(engine, jittered_period(nominal, rng, jitter), callback)


class CycleDriver:
    """Cycle-driven protocol execution on top of an :class:`Engine`.

    Parameters
    ----------
    engine:
        The event engine supplying the clock.
    step_fn:
        Called once per cycle as ``step_fn(cycle_index)``.  Protocols
        typically iterate their live nodes in shuffled order inside it.
    period:
        Simulated seconds per cycle (the gossip period, paper's ``δt``).
    telemetry:
        Observability sink (``repro.obs``).  When enabled, every cycle
        records its wall time, events processed, and queue depth, and
        feeds the throttled ``--progress`` line.  Defaults to the no-op
        backend, whose cost is one attribute check per cycle.
    """

    def __init__(
        self,
        engine: Engine,
        step_fn: Callable[[int], None],
        period: float = 1.0,
        telemetry=None,
    ) -> None:
        if period <= 0:
            raise ValueError("period must be positive")
        if telemetry is None:
            from repro.obs import NULL

            telemetry = NULL
        self.engine = engine
        self.period = period
        self.telemetry = telemetry
        self._step_fn = step_fn
        self._cycle = 0
        #: (metrics registry, counters/gauges/histogram) memo for the
        #: instrumented per-cycle path; rebuilt if the registry is swapped.
        self._instruments = None

    @property
    def cycle(self) -> int:
        """Number of completed cycles."""
        return self._cycle

    def run_cycles(self, n: int) -> None:
        """Run ``n`` cycles back-to-back, advancing the engine clock.

        Between consecutive cycles, any engine events that fall inside the
        cycle window (e.g. churn joins/leaves, measurements) are executed
        first, so the interleaving matches an event-driven run.
        """
        telemetry = self.telemetry
        engine = self.engine
        period = self.period
        step_fn = self._step_fn
        for _ in range(n):
            if telemetry.enabled:
                self._run_one_instrumented()
                continue
            engine.run(until=engine.now + period)
            step_fn(self._cycle)
            self._cycle += 1

    def _run_one_instrumented(self) -> None:
        """One cycle with engine-layer telemetry (wall time, events/sec,
        queue depth) — split out so the uninstrumented loop stays bare."""
        engine = self.engine
        telemetry = self.telemetry
        t0 = time.perf_counter()
        processed_before = engine.processed

        target = engine.now + self.period
        engine.run(until=target)
        self._step_fn(self._cycle)
        self._cycle += 1

        wall = time.perf_counter() - t0
        events = engine.processed - processed_before
        depth = engine.pending
        m = telemetry.metrics
        # Resolve the five instruments once per registry, not per cycle —
        # every lookup pays a label-key construction.
        ins = self._instruments
        if ins is None or ins[0] is not m:
            ins = self._instruments = (
                m,
                m.counter("engine_cycles_total"),
                m.counter("engine_events_total"),
                m.gauge("engine_queue_depth"),
                m.gauge("engine_sim_time_s"),
                m.histogram("engine_cycle_wall_ms"),
            )
        ins[1].inc()
        ins[2].inc(events)
        ins[3].set(depth)
        ins[4].set(engine.now)
        ins[5].observe(wall * 1000.0)
        if telemetry.tracing:
            telemetry.event(
                "cycle",
                t=engine.now,
                cycle=self._cycle - 1,
                wall_ms=round(wall * 1000.0, 3),
                events=events,
                queue=depth,
            )
        telemetry.progress(
            lambda: (
                f"t={engine.now:.1f}s cycle={self._cycle} "
                f"events={engine.processed} queue={depth}"
            )
        )
