"""Trace/metrics collector for multi-process live runs.

Each node process streams its :mod:`repro.obs` JSONL records — span and
protocol events during the run, one ``metrics_snapshot`` record at
shutdown — over one TCP connection.  Records are tagged ``proc`` at the
source (``TraceWriter(base={"proc": address})``), so the collector's job
is merge, not rewrite:

- the merged record list feeds :func:`repro.obs.audit.audit_trace` and
  ``trace-report --audit`` exactly like a single-process trace (span ids
  are strings unique per process, so trees never collide);
- the per-process metrics snapshots fold into one parent
  :class:`~repro.obs.Telemetry` via ``merge_snapshot`` — the same merge
  the parallel executor uses for worker processes, which is what keeps
  live and in-sim metrics reports comparable column for column;
- streamed ``metrics_delta`` frames (``--metrics-interval``) fold into a
  :class:`~repro.net.store.MetricsStore` for ``--series-out`` — and
  *only* there: frames never enter ``records``, so the merged trace (and
  its ``trace-report --audit`` outcome) is identical with and without
  snapshot streaming.

A node process killed mid-write leaves a truncated trailing line on its
stream; the collector keeps every complete record and warns with the
node's address and byte offset, mirroring ``read_trace``'s tolerance for
truncated trace files.  Reads are chunked manually (not ``readline``) so
an oversized record cannot blow the stream-reader line limit.
"""

from __future__ import annotations

import asyncio
import json
import logging
from typing import Dict, List, Optional, Tuple

from repro.net.store import MetricsStore
from repro.net.wire import WireError, METRICS_FRAME_KIND, decode_metrics_frame
from repro.obs.trace import TraceWriter

__all__ = ["Collector"]

log = logging.getLogger(__name__)

_READ_CHUNK = 65536


class Collector:
    """JSONL sink for a cluster's observability streams."""

    def __init__(self, store: Optional[MetricsStore] = None) -> None:
        #: Every non-snapshot record, in arrival order.
        self.records: List[Dict] = []
        #: proc → its final Telemetry.snapshot().
        self.snapshots: Dict[int, Dict] = {}
        #: proc → records received (who is actually reporting).
        self.records_by_proc: Dict[int, int] = {}
        self.malformed = 0
        #: Streams that ended on an incomplete trailing line (crashed
        #: senders); each entry is (peer addr string, byte offset).
        self.truncated: List[Tuple[str, int]] = []
        #: Rolling per-node time series fed by ``metrics_delta`` frames.
        self.store = store if store is not None else MetricsStore()
        self._server: Optional[asyncio.AbstractServer] = None
        self._last_arrival = 0.0

    # ------------------------------------------------------------------
    @classmethod
    async def start(
        cls,
        host: str = "127.0.0.1",
        port: int = 0,
        store: Optional[MetricsStore] = None,
    ) -> "Collector":
        self = cls(store)
        self._server = await asyncio.start_server(self._handle, host, port)
        self._last_arrival = asyncio.get_running_loop().time()
        return self

    @property
    def local_addr(self) -> Tuple[str, int]:
        return self._server.sockets[0].getsockname()[:2]

    async def _handle(self, reader: asyncio.StreamReader,
                      writer: asyncio.StreamWriter) -> None:
        peer = writer.get_extra_info("peername")
        peer_s = f"{peer[0]}:{peer[1]}" if peer else "?"
        buf = bytearray()
        consumed = 0  # byte offset of the start of the pending line
        last_proc: Optional[int] = None
        try:
            while True:
                # Manual chunking instead of readline(): a single record
                # larger than the StreamReader line limit must not kill
                # the whole stream.
                chunk = await reader.read(_READ_CHUNK)
                if not chunk:
                    break
                self._last_arrival = asyncio.get_running_loop().time()
                buf.extend(chunk)
                while True:
                    nl = buf.find(b"\n")
                    if nl < 0:
                        break
                    line = bytes(buf[:nl])
                    del buf[: nl + 1]
                    consumed += nl + 1
                    if line.strip():
                        last_proc = self._ingest_line(line, last_proc)
        except (ConnectionError, asyncio.IncompleteReadError):
            pass
        finally:
            if buf:
                # The sender died mid-write.  A record flushed without a
                # final newline is still complete JSON — keep it; anything
                # else is a truncated frame: warn and drop, like
                # read_trace does for truncated trace files.
                try:
                    record = json.loads(buf)
                except json.JSONDecodeError:
                    who = f"node {last_proc}" if last_proc is not None else peer_s
                    log.warning(
                        "collector: truncated trailing frame from %s (%s) at "
                        "byte offset %d (%d bytes discarded); complete "
                        "records were kept",
                        who, peer_s, consumed, len(buf),
                    )
                    self.truncated.append((peer_s, consumed))
                    self.malformed += 1
                else:
                    if isinstance(record, dict):
                        self._ingest(record, last_proc)
            writer.close()

    def _ingest_line(self, line: bytes, last_proc: Optional[int]) -> Optional[int]:
        try:
            record = json.loads(line)
        except json.JSONDecodeError:
            self.malformed += 1
            return last_proc
        if not isinstance(record, dict):
            self.malformed += 1
            return last_proc
        return self._ingest(record, last_proc)

    def _ingest(self, record: Dict, last_proc: Optional[int]) -> Optional[int]:
        proc = record.get("proc", -1)
        if not isinstance(proc, int):
            # ``proc`` keys ``snapshots`` / ``records_by_proc`` and is
            # sorted in ``merge_into``: anything else is outside input
            # to count and skip, not a reason to lose the stream.
            self.malformed += 1
            return last_proc
        ev = record.get("ev")
        if ev == "metrics_snapshot":
            self.snapshots[proc] = record.get("snapshot", {})
            return proc
        if ev == METRICS_FRAME_KIND:
            # Streamed metrics frames feed the live store only — they are
            # NEVER appended to ``records``, which keeps the merged trace
            # (and its audit outcome) identical with and without
            # ``--metrics-interval``.
            try:
                fproc, seq, _t, ts, delta = decode_metrics_frame(record)
            except WireError:
                self.store.dropped_frames += 1
                return proc
            self.store.ingest(fproc, seq, ts, delta)
            return fproc
        if ev == "swim":
            # Verdict transitions are teed: into the merged trace (below,
            # emitted whenever tracing is on — streaming or not) and into
            # the live store's timeline.
            try:
                self.store.note_swim(
                    proc,
                    float(record.get("ts", record.get("t", 0.0))),
                    int(record["peer"]),
                    str(record.get("prev")),
                    str(record.get("state")),
                )
            except (KeyError, TypeError, ValueError):
                pass
        self.records_by_proc[proc] = self.records_by_proc.get(proc, 0) + 1
        self.records.append(record)
        return proc

    # ------------------------------------------------------------------
    async def wait_quiescent(self, idle: float = 1.0, timeout: float = 30.0) -> bool:
        """Wait until no record has arrived for ``idle`` seconds.

        Returns False when ``timeout`` elapsed first.
        """
        loop = asyncio.get_running_loop()
        deadline = loop.time() + timeout
        while loop.time() < deadline:
            if loop.time() - self._last_arrival >= idle:
                return True
            await asyncio.sleep(min(0.1, idle / 4))
        return False

    # ------------------------------------------------------------------
    def merge_into(self, telemetry) -> None:
        """Fold every process's metrics snapshot into ``telemetry``
        (ascending proc order, so gauge merges are deterministic)."""
        for proc in sorted(self.snapshots):
            telemetry.merge_snapshot(self.snapshots[proc])

    def write_trace(self, path: str, extra: Optional[List[Dict]] = None) -> int:
        """Write the merged trace (plus driver-side ``extra`` records,
        e.g. miss attributions) as one JSONL file; returns record count."""
        records = self.records + list(extra or [])
        with TraceWriter(path, flush_every=5000) as tw:
            for record in records:
                tw.write_record(record)
        return len(records)

    async def close(self) -> None:
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
