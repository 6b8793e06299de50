"""Live deployment runtime: the paper's system on real sockets.

The simulator (:mod:`repro.sim`) and the message-driven deployment mode
(:mod:`repro.core.deployment`) both run inside one process on a simulated
clock.  This package runs the *same* protocol across real OS processes on
a real, lossy transport:

- :mod:`repro.net.timers` — the phase-jittered periodic timer shared by
  the simulated deployment mode and the live runtime;
- :mod:`repro.net.wire` — versioned wire codec for the message classes of
  :mod:`repro.sim.messages`;
- :mod:`repro.net.transport` — UDP transport on the asyncio loop with
  per-destination ack/retransmit (one ack per drained batch, exponential
  backoff + jitter, bounded retry budget);
- :mod:`repro.net.bootstrap` — seed-node registry service and client, so
  processes discover the overlay without shared memory;
- :mod:`repro.net.liveness` — the SWIM failure detector of
  :mod:`repro.faults.detector` re-hosted on real probe datagrams;
- :mod:`repro.net.node` — one overlay node hosted in one OS process;
- :mod:`repro.net.collector` — the trace/metrics collector that merges
  every process's :mod:`repro.obs` stream into one auditable trace and
  folds streamed ``metrics_delta`` frames into the live store;
- :mod:`repro.net.store` — the bounded per-node metrics time-series
  ``--series-out`` persists for ``python -m repro live-report``;
- :mod:`repro.net.cluster` — the local-cluster launcher driving a
  fig4-style measurement end-to-end (``python -m repro live cluster``).

Everything here is import-light: the simulator never imports this
package, so simulator-only runs are byte-identical with or without it.
"""

__all__ = []
