"""HTTP endpoint exposing the live collector's metrics store.

A deliberately tiny asyncio HTTP/1.0 server — two read-only routes, no
dependencies:

- ``GET /metrics`` — the cluster's per-node registries rendered to the
  OpenMetrics exposition format (:mod:`repro.obs.openmetrics`), with the
  content type a Prometheus scraper negotiates;
- ``GET /status.json`` — the :meth:`~repro.net.store.MetricsStore.status_doc`
  JSON the ``python -m repro live status`` console polls.

Anything else answers 404; malformed requests answer 400.  Each request
is one connection (``Connection: close``) — scrape intervals are seconds,
so connection reuse buys nothing here.
"""

from __future__ import annotations

import asyncio
import json
import logging
import time
from typing import Optional, Tuple

from repro.net.store import MetricsStore
from repro.obs.openmetrics import CONTENT_TYPE, render_openmetrics

__all__ = ["MetricsEndpoint"]

log = logging.getLogger(__name__)


class MetricsEndpoint:
    """Serves a :class:`MetricsStore` over HTTP for scrapers and the
    status console."""

    def __init__(self, store: MetricsStore) -> None:
        self.store = store
        self._server: Optional[asyncio.AbstractServer] = None

    @classmethod
    async def start(
        cls, store: MetricsStore, host: str = "127.0.0.1", port: int = 0
    ) -> "MetricsEndpoint":
        self = cls(store)
        self._server = await asyncio.start_server(self._handle, host, port)
        return self

    @property
    def local_addr(self) -> Tuple[str, int]:
        return self._server.sockets[0].getsockname()[:2]

    # ------------------------------------------------------------------
    async def _handle(self, reader: asyncio.StreamReader,
                      writer: asyncio.StreamWriter) -> None:
        try:
            request_line = await asyncio.wait_for(reader.readline(), timeout=10.0)
            parts = request_line.decode("ascii", "replace").split()
            if len(parts) < 2:
                await self._respond(writer, 400, "text/plain", "bad request\n")
                return
            method, path = parts[0], parts[1]
            # Drain headers until the blank line; we never need them.
            while True:
                header = await asyncio.wait_for(reader.readline(), timeout=10.0)
                if header in (b"\r\n", b"\n", b""):
                    break
            if method != "GET":
                await self._respond(writer, 405, "text/plain", "GET only\n")
                return
            path = path.split("?", 1)[0]
            if path == "/metrics":
                snapshots = {
                    proc: reg.snapshot()
                    for proc, reg in self.store.registries().items()
                }
                await self._respond(
                    writer, 200, CONTENT_TYPE, render_openmetrics(snapshots)
                )
            elif path == "/status.json":
                doc = self.store.status_doc(time.time())
                await self._respond(
                    writer, 200, "application/json",
                    json.dumps(doc, sort_keys=True) + "\n",
                )
            else:
                await self._respond(writer, 404, "text/plain", "not found\n")
        except (asyncio.TimeoutError, ConnectionError):
            pass
        except Exception:  # pragma: no cover - keep the endpoint alive
            log.exception("metrics endpoint request failed")
        finally:
            writer.close()

    @staticmethod
    async def _respond(writer: asyncio.StreamWriter, status: int,
                       content_type: str, body: str) -> None:
        reason = {200: "OK", 400: "Bad Request", 404: "Not Found",
                  405: "Method Not Allowed"}.get(status, "OK")
        payload = body.encode("utf-8")
        head = (
            f"HTTP/1.0 {status} {reason}\r\n"
            f"Content-Type: {content_type}\r\n"
            f"Content-Length: {len(payload)}\r\n"
            f"Connection: close\r\n\r\n"
        )
        writer.write(head.encode("ascii") + payload)
        await writer.drain()

    async def close(self) -> None:
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
