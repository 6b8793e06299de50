"""Seed-node bootstrap: join/registry/peer-list control plane.

Processes discover the overlay through one (or a few) well-known seed
endpoints instead of shared memory — the pattern of the related repos'
``seed.py`` control planes (SNIPPETS.md): a tiny registry service that
assigns overlay addresses, answers with the current peer list, and pushes
registry updates to every member.

The channel is newline-delimited JSON over TCP.  TCP is deliberate: the
*data* plane is lossy UDP with explicit retry/liveness discipline, but
bootstrap is a handful of small exchanges where inventing a reliable
handshake over UDP would add failure modes without exercising anything
the paper cares about.  The seed connection doubles as the launcher's
command channel (publish/topo/shutdown requests in
:mod:`repro.net.cluster`) so experiments need no second control path.

Protocol (client → seed)::

    {"op": "join", "host": H, "port": P}     UDP endpoint of the joiner
    {"op": "report_dead", "addr": A}         a SWIM confirmation
    {"op": <anything else>, ...}             forwarded to the service's
                                             on_node_message hook

Seed → client::

    {"op": "welcome", "address": A, "peers": [[addr, host, port], ...]}
    {"op": "registry", "peers": [...]}       membership changed
    {"op": ...}                              driver commands, forwarded
                                             to the client's on_push hook

A member whose TCP connection drops is removed from the registry and the
change is broadcast — crash detection for the control plane; the overlay
itself learns of deaths through SWIM on the UDP plane.

Each end logs and skips a line that is not a JSON object.  The seed also
skips a ``join`` whose ``host`` is not a string or whose ``port`` is not
an int, a ``report_dead`` whose ``addr`` is not an int, and a second
``join`` on a joined connection.  Either way the connection keeps being
read.
"""

from __future__ import annotations

import asyncio
import json
import logging
from typing import Callable, Dict, List, Optional, Tuple

__all__ = ["SeedService", "SeedClient"]

log = logging.getLogger(__name__)


def _dumps(obj: Dict) -> bytes:
    return (json.dumps(obj, separators=(",", ":")) + "\n").encode()


def _object(line: bytes) -> Optional[Dict]:
    """The JSON object on *line*, or None when it holds anything else."""
    try:
        obj = json.loads(line)
    except ValueError:  # not JSON, or not UTF-8
        return None
    return obj if isinstance(obj, dict) else None


class SeedService:
    """The registry service (run in the launcher/driver process)."""

    def __init__(self) -> None:
        #: address → (host, port) UDP endpoint of each joined member.
        self.endpoints: Dict[int, Tuple[str, int]] = {}
        #: Addresses reported confirmed-dead by members' SWIM detectors.
        self.reported_dead: Dict[int, List[int]] = {}
        #: Hook: ``on_node_message(address, obj)`` for non-registry ops.
        self.on_node_message: Optional[Callable[[int, Dict], None]] = None
        self._writers: Dict[int, asyncio.StreamWriter] = {}
        self._next_address = 0
        self._server: Optional[asyncio.AbstractServer] = None
        self._joined = asyncio.Event()

    # ------------------------------------------------------------------
    @classmethod
    async def start(cls, host: str = "127.0.0.1", port: int = 0) -> "SeedService":
        self = cls()
        self._server = await asyncio.start_server(self._handle, host, port)
        return self

    @property
    def local_addr(self) -> Tuple[str, int]:
        return self._server.sockets[0].getsockname()[:2]

    async def wait_for(self, n: int, timeout: float = 60.0) -> None:
        """Block until ``n`` members have joined."""
        deadline = asyncio.get_running_loop().time() + timeout
        while len(self.endpoints) < n:
            remaining = deadline - asyncio.get_running_loop().time()
            if remaining <= 0:
                raise TimeoutError(
                    f"only {len(self.endpoints)}/{n} members joined"
                )
            self._joined.clear()
            try:
                await asyncio.wait_for(self._joined.wait(), remaining)
            except asyncio.TimeoutError:
                pass

    # ------------------------------------------------------------------
    def _registry_rows(self) -> List[List]:
        return [[a, h, p] for a, (h, p) in sorted(self.endpoints.items())]

    def send_to(self, address: int, obj: Dict) -> bool:
        """Push one control message to a member (False if disconnected)."""
        writer = self._writers.get(address)
        if writer is None or writer.is_closing():
            return False
        writer.write(_dumps(obj))
        return True

    def broadcast(self, obj: Dict) -> None:
        data = _dumps(obj)
        for writer in self._writers.values():
            if not writer.is_closing():
                writer.write(data)

    def _broadcast_registry(self) -> None:
        self.broadcast({"op": "registry", "peers": self._registry_rows()})

    # ------------------------------------------------------------------
    async def _handle(self, reader: asyncio.StreamReader,
                      writer: asyncio.StreamWriter) -> None:
        address: Optional[int] = None
        try:
            while True:
                line = await reader.readline()
                if not line:
                    break
                obj = _object(line)
                if obj is None:
                    log.warning("seed: skipped a line that is not a JSON object from %s", address)
                    continue
                op = obj.get("op")
                if op == "join":
                    host, port = obj.get("host"), obj.get("port")
                    if address is not None or not isinstance(host, str) or type(port) is not int:
                        log.warning("seed: ignored join from %s: %r", address, obj)
                        continue
                    address = self._next_address
                    self._next_address += 1
                    self.endpoints[address] = (host, port)
                    self._writers[address] = writer
                    writer.write(_dumps({
                        "op": "welcome",
                        "address": address,
                        "peers": self._registry_rows(),
                    }))
                    self._broadcast_registry()
                    self._joined.set()
                elif op == "report_dead":
                    dead = obj.get("addr")
                    if type(dead) is not int:
                        log.warning("seed: ignored report_dead from %s: %r", address, obj)
                        continue
                    self.reported_dead.setdefault(dead, []).append(
                        address if address is not None else -1
                    )
                elif self.on_node_message is not None and address is not None:
                    self.on_node_message(address, obj)
        except (ConnectionError, asyncio.IncompleteReadError):
            pass
        finally:
            if address is not None and self._writers.get(address) is writer:
                del self._writers[address]
                self.endpoints.pop(address, None)
                self._broadcast_registry()
            writer.close()

    async def close(self) -> None:
        for writer in list(self._writers.values()):
            writer.close()
        self._writers.clear()
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()


class SeedClient:
    """A member's connection to the seed (run in each node process)."""

    def __init__(self) -> None:
        self.address: Optional[int] = None
        #: address → (host, port), kept current by registry pushes.
        self.peers: Dict[int, Tuple[str, int]] = {}
        #: Hook: called with every non-registry push (driver commands).
        self.on_push: Optional[Callable[[Dict], None]] = None
        #: Hook: called after every registry update.
        self.on_registry: Optional[Callable[[Dict[int, Tuple[str, int]]], None]] = None
        self._reader: Optional[asyncio.StreamReader] = None
        self._writer: Optional[asyncio.StreamWriter] = None
        self._reader_task: Optional[asyncio.Task] = None

    # ------------------------------------------------------------------
    @classmethod
    async def connect(
        cls,
        seed_host: str,
        seed_port: int,
        udp_host: str,
        udp_port: int,
        timeout: float = 10.0,
    ) -> "SeedClient":
        """Join the overlay: register our UDP endpoint, learn the peers."""
        self = cls()
        self._reader, self._writer = await asyncio.wait_for(
            asyncio.open_connection(seed_host, seed_port), timeout
        )
        self._writer.write(_dumps({"op": "join", "host": udp_host, "port": udp_port}))
        line = await asyncio.wait_for(self._reader.readline(), timeout)
        welcome = _object(line)
        if welcome is None or welcome.get("op") != "welcome":
            raise ConnectionError(f"unexpected seed reply: {line!r}")
        self.address = welcome["address"]
        self._apply_registry(welcome["peers"])
        self._reader_task = asyncio.get_running_loop().create_task(self._read_loop())
        return self

    def _apply_registry(self, rows: List[List]) -> None:
        self.peers = {a: (h, p) for a, h, p in rows}
        if self.on_registry is not None:
            self.on_registry(self.peers)

    async def _read_loop(self) -> None:
        try:
            while True:
                line = await self._reader.readline()
                if not line:
                    break
                obj = _object(line)
                if obj is None:
                    log.warning("seed client: skipped a line that is not a JSON object")
                    continue
                if obj.get("op") == "registry":
                    self._apply_registry(obj["peers"])
                elif self.on_push is not None:
                    self.on_push(obj)
        except (ConnectionError, asyncio.CancelledError):
            pass

    # ------------------------------------------------------------------
    def send(self, obj: Dict) -> None:
        """Send one control message to the seed (fire and forget)."""
        if self._writer is not None and not self._writer.is_closing():
            self._writer.write(_dumps(obj))

    def report_dead(self, address: int) -> None:
        self.send({"op": "report_dead", "addr": address})

    async def close(self) -> None:
        if self._reader_task is not None:
            self._reader_task.cancel()
        if self._writer is not None:
            self._writer.close()
