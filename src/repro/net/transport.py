"""UDP transport with per-destination ack/retransmit, on the asyncio loop.

The live counterpart of :class:`repro.sim.network.Network`: protocol code
calls ``transport.send(message)`` with the same
:mod:`repro.sim.messages` objects it would hand the simulator, and
received messages surface through one ``on_message`` callback.  The
differences a real wire forces are all here:

- **Its own socket** — the transport binds a non-blocking UDP socket and
  registers one ``loop.add_reader`` callback, so it needs a selector
  event loop (POSIX, which the live runtime targets).  Each readiness
  drains up to ``_DRAIN_BATCH`` datagrams; ``send``, the retransmit
  sweep and the ack flush call ``socket.sendto`` directly.  A socket
  error (``BlockingIOError``, or an ICMP port-unreachable reported as
  ``ECONNREFUSED``) never escapes: it is logged at debug level, and the
  retry discipline below covers the datagram it cost.
- **Reliability discipline** — control-plane and data-plane kinds are
  acked per drained batch — one ack datagram per source address,
  carrying every reliable seq that batch read from it — and
  retransmitted on a capped exponential backoff with jitter
  (:class:`repro.faults.healing.RetryPolicy`).  The retry budget is
  bounded: a message still unacked after the last attempt is *given
  up*, counted, reported via ``on_give_up`` (feeding the liveness layer
  and the failure-span trace), and dropped — the transport degrades
  into the protocol's existing fault-aware eviction path instead of
  blocking on a dead peer.  One timer per transport sweeps the pending
  sends' deadlines (it never sleeps past the earliest one); the delay
  and give-up rules are those of the policy, unchanged.
- **SWIM kinds are exempt** — probes, acks, suspicions and refutations
  ride unreliable, exactly as SWIM requires: the detector supplies its
  own end-to-end semantics, and a transport that retried probes would
  mask the loss the detector exists to measure.
- **Dedup** — retransmission implies duplicates; receivers drop repeats
  by ``(sender, seq)`` within a bounded window and re-ack them (the
  first ack may have been the lost datagram).
- **Loss injection** — an optional ``loss_rate`` drops incoming
  datagrams (data *and* acks) with i.i.d. probability, the live
  analogue of :class:`repro.faults.models.MessageLoss`; tests and the
  `live` contract entry's cluster run with it on.

Counter names mirror the simulator's ``Network`` (``sent``,
``delivered``, ``dropped`` per kind, plus per-address tallies), so the
live and simulated traffic reports line up column for column.
"""

from __future__ import annotations

import asyncio
import logging
import socket
from collections import Counter, deque
from typing import Callable, Dict, List, Optional, Tuple

from repro.faults.healing import RetryPolicy
from repro.net import wire
from repro.sim.messages import Message

__all__ = ["UdpTransport", "UNRELIABLE_KINDS"]

log = logging.getLogger(__name__)

#: Kinds sent fire-and-forget (see module docstring).
UNRELIABLE_KINDS = frozenset(
    {"Probe", "ProbeReq", "ProbeAck", "Suspicion", "Refutation"}
)

#: Per-sender dedup window: remembered ``seq`` values per peer.
_DEDUP_WINDOW = 4096

#: Datagrams read per readiness at most, so one busy socket cannot hold
#: the loop; an ack run is at most this long.
_DRAIN_BATCH = 64

#: Receive buffer: the largest UDP payload.
_MAX_DATAGRAM = 65535


class _Pending:
    """One unacked reliable datagram awaiting its ack."""

    __slots__ = ("msg", "data", "endpoint", "attempts", "deadline")

    def __init__(self, msg, data, endpoint, deadline: float) -> None:
        self.msg = msg
        self.data = data
        self.endpoint = endpoint
        self.attempts = 1
        #: Loop time after which the latest transmission counts as lost.
        self.deadline = deadline


class UdpTransport:
    """One node's UDP endpoint (create with :meth:`create`).

    Parameters
    ----------
    address:
        This node's overlay address (stamped as ``src`` on acks).
    rng:
        Dedicated ``random.Random`` for backoff jitter and loss dice.
    retry:
        The :class:`RetryPolicy`; defaults apply when omitted.
    loss_rate:
        Probability of dropping each *incoming* datagram (test/CI fault
        injection; 0 = perfect wire).
    """

    def __init__(
        self,
        address: int,
        rng,
        retry: Optional[RetryPolicy] = None,
        loss_rate: float = 0.0,
    ) -> None:
        self.address = address
        self.rng = rng
        self.retry = retry if retry is not None else RetryPolicy()
        self.loss_rate = loss_rate
        #: overlay address → (host, port); fed by the bootstrap registry.
        self.endpoints: Dict[int, Tuple[str, int]] = {}
        #: Delivery callback: ``on_message(msg)`` (set by the node host).
        self.on_message: Optional[Callable[[Message], None]] = None
        #: Retry-budget exhaustion callback: ``on_give_up(msg)``.
        self.on_give_up: Optional[Callable[[Message], None]] = None
        # Traffic accounting (mirrors repro.sim.network.Network).
        self.sent = Counter()
        self.delivered = Counter()
        self.dropped = Counter()
        self.sent_by_addr = Counter()
        self.delivered_by_addr = Counter()
        self.bytes_sent = 0
        self.retransmits = 0
        self.gave_up = 0
        self.duplicates = 0
        self.loss_injected = 0
        self.malformed = 0
        self._seq = 0
        self._pending: Dict[int, _Pending] = {}
        #: The one retransmit sweep, armed while anything is pending.
        self._sweep: Optional[asyncio.TimerHandle] = None
        #: Reliable seqs read since the last ack flush, per source
        #: address: ``[acked overlay address, seq, seq, ...]``.
        self._acks: Dict[Tuple[str, int], List[int]] = {}
        self._seen: Dict[int, set] = {}
        self._seen_order: Dict[int, deque] = {}
        self._sock: Optional[socket.socket] = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._closed = False

    # ------------------------------------------------------------------
    @classmethod
    async def create(
        cls,
        address: int,
        rng,
        host: str = "127.0.0.1",
        port: int = 0,
        retry: Optional[RetryPolicy] = None,
        loss_rate: float = 0.0,
    ) -> "UdpTransport":
        """Bind a UDP socket (port 0 = OS-assigned) and start receiving."""
        self = cls(address, rng, retry=retry, loss_rate=loss_rate)
        self._loop = asyncio.get_running_loop()
        family, kind, proto, _, local = (
            await self._loop.getaddrinfo(host, port, type=socket.SOCK_DGRAM)
        )[0]
        sock = self._sock = socket.socket(family, kind, proto)
        try:
            sock.setblocking(False)
            sock.bind(local)
            self._loop.add_reader(sock.fileno(), self._on_readable)
        except BaseException:
            sock.close()
            raise
        return self

    @property
    def local_addr(self) -> Tuple[str, int]:
        """The bound ``(host, port)`` — report this to the seed registry."""
        return self._sock.getsockname()[:2]

    # ------------------------------------------------------------------
    # Sending
    # ------------------------------------------------------------------
    def send(self, msg: Message) -> bool:
        """Send one message; returns False when it was dropped outright
        (unknown destination, closed transport, or an unreliable kind
        the socket refused)."""
        if self._closed:
            return False
        kind = msg.kind
        endpoint = self.endpoints.get(msg.dst)
        if endpoint is None:
            self.dropped[kind] += 1
            return False
        self._seq += 1
        seq = self._seq
        data = wire.encode(msg, seq)
        self.sent[kind] += 1
        self.sent_by_addr[self.address] += 1
        self.bytes_sent += len(data)
        try:
            self._sock.sendto(data, endpoint)
        except OSError as exc:
            # A reliable kind stays pending below: the sweep resends it.
            log.debug("transport error: %s", exc)
            if kind in UNRELIABLE_KINDS:
                self.dropped[kind] += 1
                return False
        if kind not in UNRELIABLE_KINDS:
            now = self._loop.time()
            self._pending[seq] = _Pending(
                msg, data, endpoint, now + self.retry.delay(1, self.rng)
            )
            if self._sweep is None:
                self._sweep = self._loop.call_at(
                    now + self.retry.min_delay, self._on_sweep
                )
        return True

    def _on_sweep(self) -> None:
        wake = self._sweep_due(self._loop.time())
        self._sweep = None if wake is None else self._loop.call_at(wake, self._on_sweep)

    def _sweep_due(self, now: float) -> Optional[float]:
        """Retransmit, or give up at the end of its budget, every pending
        send whose deadline has passed by ``now``, in sequence order.

        Returns when to sweep next, or None when nothing is pending: the
        earliest remaining deadline, but no later than ``now +
        retry.min_delay`` — a send made before then arms no timer of its
        own, and its deadline can be no earlier than that.  Reads no clock.
        """
        retry = self.retry
        wake = now + retry.min_delay
        # Over a copy: ``on_give_up`` may send.
        for seq, pending in list(self._pending.items()):
            if pending.deadline > now:
                if pending.deadline < wake:
                    wake = pending.deadline
                continue
            if pending.attempts >= retry.MAX_ATTEMPTS:
                del self._pending[seq]
                self.gave_up += 1
                self.dropped[pending.msg.kind] += 1
                if self.on_give_up is not None:
                    self.on_give_up(pending.msg)
                continue
            pending.attempts += 1
            self.retransmits += 1
            self.bytes_sent += len(pending.data)
            try:
                self._sock.sendto(pending.data, pending.endpoint)
            except OSError as exc:  # a lost attempt, like any other
                log.debug("transport error: %s", exc)
            pending.deadline = now + retry.delay(pending.attempts, self.rng)
        return wake if self._pending else None

    # ------------------------------------------------------------------
    # Receiving
    # ------------------------------------------------------------------
    def _on_readable(self) -> None:
        """The socket's reader: drain up to ``_DRAIN_BATCH`` datagrams,
        then send each source one ack for every reliable seq it sent —
        even if ``on_message`` raised part-way."""
        recvfrom = self._sock.recvfrom
        try:
            for _ in range(_DRAIN_BATCH):
                try:
                    data, addr = recvfrom(_MAX_DATAGRAM)
                except BlockingIOError:  # drained
                    return
                except OSError as exc:
                    log.debug("transport error: %s", exc)
                    return
                self._on_datagram(data, addr)
                if self._closed:
                    return
        finally:
            self._flush_acks()

    def _flush_acks(self) -> None:
        if not self._acks:  # also after close(), which drops the runs
            return
        acks, self._acks = self._acks, {}
        for addr, (dst, *seqs) in acks.items():
            ack = wire.encode_ack(seqs, self.address, dst)
            self.bytes_sent += len(ack)
            try:
                self._sock.sendto(ack, addr)
            except OSError as exc:  # the sender retransmits; we re-ack
                log.debug("transport error: %s", exc)

    def _on_datagram(self, data: bytes, addr) -> None:
        if self._closed:
            return
        if self.loss_rate and self.rng.random() < self.loss_rate:
            self.loss_injected += 1
            return
        try:
            msg, seq = wire.decode(data)
        except wire.WireError:
            self.malformed += 1
            return
        if msg is None:  # an ack for a run of our reliable sends
            pop = self._pending.pop
            for acked in seq:
                pop(acked, None)
            return
        kind = msg.kind
        if kind not in UNRELIABLE_KINDS:
            # Ack at the flush — even duplicates (our previous ack may be
            # the datagram the wire ate).
            run = self._acks.get(addr)
            if run is None:
                self._acks[addr] = [msg.src, seq]
            else:
                run.append(seq)
            if self._is_duplicate(msg.src, seq):
                self.duplicates += 1
                return
        # A datagram is as good as a registry row: learn the endpoint.
        self.endpoints.setdefault(msg.src, (addr[0], addr[1]))
        self.delivered[kind] += 1
        self.delivered_by_addr[self.address] += 1
        if self.on_message is not None:
            self.on_message(msg)

    def _is_duplicate(self, src: int, seq: int) -> bool:
        seen = self._seen.get(src)
        if seen is None:
            seen = self._seen[src] = set()
            self._seen_order[src] = deque()
        if seq in seen:
            return True
        seen.add(seq)
        order = self._seen_order[src]
        order.append(seq)
        if len(order) > _DEDUP_WINDOW:
            seen.discard(order.popleft())
        return False

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    @property
    def pending_count(self) -> int:
        """Reliable sends still awaiting their ack."""
        return len(self._pending)

    async def drain(self, timeout: float = 5.0) -> bool:
        """Wait until every reliable send is acked or given up.

        Returns True when the pending set emptied within ``timeout``.
        """
        deadline = self._loop.time() + timeout
        while self._pending and self._loop.time() < deadline:
            await asyncio.sleep(0.02)
        return not self._pending

    def close(self) -> None:
        """Stop receiving and sending; a second call does nothing."""
        self._closed = True
        if self._sweep is not None:
            self._sweep.cancel()
            self._sweep = None
        self._pending.clear()
        self._acks.clear()
        sock = self._sock
        if sock is not None and sock.fileno() != -1:
            self._loop.remove_reader(sock.fileno())
            sock.close()
