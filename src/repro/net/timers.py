"""Phase-jittered periodic timers.

Every node in the deployed protocol runs on its own timer whose period is
drawn once, at deploy time, from a ±``jitter``/2 band around the nominal
gossip period.  The draw desynchronises the population (no global rounds,
no thundering herd against shared links) while keeping each node's cadence
fixed — the form the paper's evaluation assumes and
:class:`repro.core.deployment.DeployedVitisNode` has always used.

The draw itself (:func:`~repro.sim.engine.jittered_period`) lives beside
the simulated-clock :class:`~repro.sim.engine.PeriodicTask` and is
re-exported here; this module adds the asyncio-clock counterpart,
:class:`AsyncPeriodicTask`, that the live runtime schedules it on.
"""

from __future__ import annotations

import asyncio
from typing import Callable, Optional

from repro.sim.engine import DEFAULT_JITTER, jittered_period, start_periodic

__all__ = ["DEFAULT_JITTER", "jittered_period", "start_periodic", "AsyncPeriodicTask"]


class AsyncPeriodicTask:
    """The asyncio analogue of :class:`~repro.sim.engine.PeriodicTask`.

    Repeats ``callback`` every ``period`` wall-clock seconds until
    :meth:`stop` is called or the callback returns ``False``.  The period
    is fixed; draw it with :func:`jittered_period` for phase spread.  The
    callback runs on the event loop, so it must not block.
    """

    def __init__(
        self,
        period: float,
        callback: Callable[[], Optional[bool]],
        loop: Optional[asyncio.AbstractEventLoop] = None,
        first_delay: Optional[float] = None,
    ) -> None:
        if period <= 0:
            raise ValueError("period must be positive")
        self._period = period
        self._callback = callback
        self._loop = loop if loop is not None else asyncio.get_event_loop()
        self._stopped = False
        delay = period if first_delay is None else first_delay
        self._handle = self._loop.call_later(delay, self._fire)

    def _fire(self) -> None:
        if self._stopped:
            return
        keep = self._callback()
        if keep is False or self._stopped:
            self._stopped = True
            return
        self._handle = self._loop.call_later(self._period, self._fire)

    def stop(self) -> None:
        """Cancel the task; a pending occurrence will not fire."""
        self._stopped = True
        if self._handle is not None:
            self._handle.cancel()
