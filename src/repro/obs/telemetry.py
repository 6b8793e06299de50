"""The :class:`Telemetry` facade and its no-op twin.

One ``Telemetry`` object carries every observability channel of a run:

- ``metrics`` — a :class:`~repro.obs.registry.MetricsRegistry`;
- ``trace`` — an optional :class:`~repro.obs.trace.TraceWriter` (JSONL);
- ``phases`` — a :class:`~repro.obs.phases.PhaseTimer`;
- ``series`` — a :class:`~repro.sim.monitors.TimeSeries` for probe
  time series (e.g. the ring-convergence probe during warm-up);
- a throttled ``progress`` line printer for long runs.

Instrumented code receives a telemetry object and guards its hot paths::

    if telemetry.enabled:
        telemetry.metrics.counter("lookups_total").inc()
    if telemetry.tracing:
        telemetry.event("lookup", t=now, hops=lr.hops, ok=lr.success)

:data:`NULL` is a singleton :class:`NullTelemetry` whose ``enabled`` and
``tracing`` are both False and whose methods do nothing, so fully
uninstrumented runs pay only one attribute check per guard.

Because scenario functions build protocols several layers down, a
telemetry object can also be installed *ambiently* for a code region::

    with obs.scope(telemetry):
        rows = run_sweep(scenarios.fig4_spec(...))

Protocol constructors and the build helpers default their ``telemetry``
argument to :func:`current`, so the CLI can instrument any scenario
without changing scenario signatures.  The public API is unchanged when
no scope is active: the default is :data:`NULL`.
"""

from __future__ import annotations

import contextlib
import logging
import sys
import time
from typing import Callable, Dict, Iterator, Optional, TextIO, Union

from repro.obs.phases import PhaseTimer
from repro.obs.registry import MetricsRegistry
from repro.obs.trace import TraceWriter
from repro.sim.monitors import TimeSeries

__all__ = ["Telemetry", "NullTelemetry", "NULL", "current", "scope"]

log = logging.getLogger(__name__)


class Telemetry:
    """All observability channels of one run, behind one handle."""

    #: Real telemetry is enabled; hot paths guard on this attribute.
    enabled = True

    def __init__(
        self,
        trace: Union[str, TextIO, TraceWriter, None] = None,
        progress: bool = False,
        progress_interval: float = 2.0,
        progress_stream: Optional[TextIO] = None,
    ) -> None:
        self.metrics = MetricsRegistry()
        self.phases = PhaseTimer()
        self.series = TimeSeries()
        if trace is None or isinstance(trace, TraceWriter):
            self.trace: Optional[TraceWriter] = trace
        else:
            self.trace = TraceWriter(trace)
        self.phases.on_exit = self._on_phase_exit
        self._progress = progress
        self._progress_interval = progress_interval
        self._progress_stream = progress_stream if progress_stream is not None else sys.stderr
        # -inf so the first progress line prints immediately (perf_counter's
        # epoch is arbitrary and may already exceed the interval).
        self._last_progress = -float("inf")
        self._trace_seq = 0

    # ------------------------------------------------------------------
    @property
    def tracing(self) -> bool:
        """True when trace events are being recorded (guards payload work)."""
        return self.trace is not None

    def next_trace_id(self, prefix: str = "e") -> str:
        """Allocate the next causal trace id (``e0``, ``e1``, …).

        Deterministic within one telemetry object; parallel workers each
        restart at 0, so merged traces disambiguate by their ``trial``
        tag (see :func:`repro.obs.spans.trace_key`).  Relay-installation
        traces use prefix ``i`` so event and install ids never collide.
        """
        n = self._trace_seq
        self._trace_seq += 1
        return f"{prefix}{n}"

    def event(self, ev: str, t: Optional[float] = None, **fields) -> None:
        """Emit one trace event (no-op without a trace writer)."""
        if self.trace is not None:
            self.trace.emit(ev, t=t, **fields)

    def phase(self, name: str):
        """Time a phase: ``with telemetry.phase("converge"): ...``."""
        return self.phases.phase(name)

    def _on_phase_exit(self, path: str, elapsed: float) -> None:
        log.debug("phase %s finished in %.3fs", path, elapsed)
        if self.trace is not None:
            self.trace.emit("phase", phase=path, dur_s=round(elapsed, 6))

    # ------------------------------------------------------------------
    def progress(self, line: Callable[[], str]) -> None:
        """Print a throttled one-line status (``--progress``).

        ``line`` is a thunk so disabled/throttled calls never pay for
        formatting.
        """
        if not self._progress:
            return
        now = time.perf_counter()
        if now - self._last_progress < self._progress_interval:
            return
        self._last_progress = now
        print(f"[progress] {line()}", file=self._progress_stream, flush=True)

    # ------------------------------------------------------------------
    # Snapshot / merge — parallel executors capture a worker's telemetry
    # as a picklable snapshot and fold it into the parent on join, so
    # ``--metrics-out`` and the phase breakdown stay correct under
    # ``--jobs N``.
    # ------------------------------------------------------------------
    def snapshot(self) -> Dict:
        """Picklable dump of the metrics registry and phase timer."""
        return {"metrics": self.metrics.snapshot(), "phases": self.phases.snapshot()}

    def merge_snapshot(self, snapshot: Dict) -> None:
        """Fold a worker's :meth:`snapshot` into this telemetry.

        Counters and histograms accumulate; phase paths nest under the
        phase currently open here (a worker's ``converge`` merged while
        ``fig4`` is open lands at ``fig4/converge``).  Merge snapshots in
        trial order for deterministic gauge values.
        """
        self.metrics.merge(snapshot.get("metrics", {}))
        self.phases.merge(snapshot.get("phases", {}), prefix=self.phases.current_path())

    # ------------------------------------------------------------------
    def metrics_dump(self) -> Dict:
        """Everything except the raw trace, as one JSON-serialisable dict."""
        return {
            "metrics": self.metrics.to_dict(),
            "phases": self.phases.to_dict(),
            "series": {
                name: self.series.series(name) for name in self.series.names()
            },
        }

    def close(self) -> None:
        """Flush and close the trace channel (metrics stay readable)."""
        if self.trace is not None:
            self.trace.close()


class NullTelemetry(Telemetry):
    """The disabled backend: every operation is a no-op.

    Shares the :class:`Telemetry` interface so instrumented code never
    branches on type — only on the ``enabled``/``tracing`` attributes for
    anything costlier than a method call.
    """

    enabled = False

    def __init__(self) -> None:  # noqa: D401 — deliberately does not call super
        self.metrics = MetricsRegistry()
        self.phases = PhaseTimer()
        self.series = TimeSeries()
        self.trace = None
        self._trace_seq = 0

    @property
    def tracing(self) -> bool:
        return False

    def event(self, ev: str, t: Optional[float] = None, **fields) -> None:
        pass

    def phase(self, name: str):
        return contextlib.nullcontext()

    def progress(self, line: Callable[[], str]) -> None:
        pass

    def snapshot(self) -> Dict:
        return {"metrics": {}, "phases": {}}

    def merge_snapshot(self, snapshot: Dict) -> None:
        pass

    def metrics_dump(self) -> Dict:
        return {"metrics": {}, "phases": {}, "series": {}}

    def close(self) -> None:
        pass


#: Process-wide no-op instance — the default everywhere.
NULL = NullTelemetry()

_current: Telemetry = NULL


def current() -> Telemetry:
    """The ambient telemetry (:data:`NULL` unless a scope is active)."""
    return _current


@contextlib.contextmanager
def scope(telemetry: Telemetry) -> Iterator[Telemetry]:
    """Install ``telemetry`` as the ambient default for a code region."""
    global _current
    previous = _current
    _current = telemetry
    try:
        yield telemetry
    finally:
        _current = previous
