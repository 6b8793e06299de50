"""repro.net.transport: loopback UDP pairs, loss, retry, dedup, give-up,
and the drained batch (one ack per source) against a fake socket."""

import asyncio
import logging
import math
import random

import pytest

from repro.faults.healing import RetryPolicy
from repro.net import wire
from repro.net.transport import _DRAIN_BATCH, UdpTransport
from repro.sim import messages as M


def _retry(**constants):
    """A :class:`RetryPolicy` with some of its class constants replaced."""
    return type("TestRetry", (RetryPolicy,), constants)()


async def _pair(loss_a=0.0, loss_b=0.0, retry=None):
    a = await UdpTransport.create(0, random.Random(1), retry=retry, loss_rate=loss_a)
    b = await UdpTransport.create(1, random.Random(2), retry=retry, loss_rate=loss_b)
    a.endpoints[1] = b.local_addr
    b.endpoints[0] = a.local_addr
    return a, b


def test_reliable_delivery_over_perfect_wire():
    async def run():
        a, b = await _pair()
        got = []
        b.on_message = got.append
        for i in range(20):
            assert a.send(M.Notification(src=0, dst=1, topic=i, event_id=i))
        assert await a.drain(2.0)
        assert sorted(m.topic for m in got) == list(range(20))
        assert b.duplicates == 0
        a.close(); b.close()
    asyncio.run(run())


def test_reliable_delivery_under_sustained_loss():
    async def run():
        # 20% loss on both directions; the retry budget still gets every
        # message through, with no duplicate deliveries to the app.
        retry = _retry(MAX_ATTEMPTS=8, BASE_DELAY=0.02, MAX_DELAY=0.1)
        a, b = await _pair(loss_a=0.2, loss_b=0.2, retry=retry)
        got = []
        b.on_message = got.append
        for i in range(30):
            a.send(M.RelayInstall(src=0, dst=1, topic=i, target_id=i, origin=0, hops=1))
        assert await a.drain(10.0)
        assert sorted(m.topic for m in got) == list(range(30))
        assert a.retransmits > 0
        assert b.loss_injected > 0
        a.close(); b.close()
    asyncio.run(run())


def test_retry_budget_exhaustion_reports_give_up():
    async def run():
        retry = _retry(MAX_ATTEMPTS=3, BASE_DELAY=0.02, MAX_DELAY=0.05)
        a = await UdpTransport.create(0, random.Random(1), retry=retry)
        # Endpoint points at a port nobody listens on: every attempt dies.
        a.endpoints[1] = ("127.0.0.1", 1)  # privileged port, nothing there
        gave_up = []
        a.on_give_up = gave_up.append
        msg = M.ProfileMessage(src=0, dst=1, profile=(frozenset(), 0, {}, False))
        a.send(msg)
        await asyncio.sleep(0.5)
        assert a.gave_up == 1
        assert gave_up == [msg]
        assert a.pending_count == 0  # degraded, not blocked
        a.close()
    asyncio.run(run())


class _Handle:
    cancelled = False

    def cancel(self):
        self.cancelled = True


class _Clock:
    """Stands in for the event loop: ``send`` reads this made-up time and
    arms its sweep here, where nothing ever fires."""

    def __init__(self):
        self.now = 0.0
        self.armed = []
        self.removed = []

    def time(self):
        return self.now

    def call_at(self, when, callback, *args):
        self.armed.append(when)
        return _Handle()  # nothing fires it

    def remove_reader(self, fd):
        self.removed.append(fd)


class _Wire:
    """A socket that logs each datagram with the made-up time it left."""

    def __init__(self, clock):
        self.clock = clock
        self.log = []

    def sendto(self, data, addr):
        self.log.append((self.clock.now, data))


def test_retry_budget_is_spent_at_each_deadline_without_waiting():
    retry = _retry(MAX_ATTEMPTS=4, BASE_DELAY=100, MAX_DELAY=1000, JITTER=0)
    t = UdpTransport(0, random.Random(1), retry=retry)
    clock = _Clock()
    t._loop, t._sock = clock, _Wire(clock)
    t.endpoints[1] = ("127.0.0.1", 1)  # nothing ever acks
    gave_up = []
    t.on_give_up = lambda msg: gave_up.append((clock.now, msg))
    send_at = [0.0, 0.0, 10.0, 10.0, 25.0]  # pairs share a deadline
    msgs = [M.Notification(src=0, dst=1, topic=i, event_id=i) for i in range(len(send_at))]
    for at, msg in zip(send_at, msgs):
        clock.now = at
        t.send(msg)
    assert clock.armed == [100.0]  # one timer for all five

    # Transmissions at s, s + 100, s + 300, s + 700 (delays 100, 200,
    # 400), then the fourth waits 800 and the budget is spent.
    events = [[s, s + 100, s + 300, s + 700, s + 1500] for s in send_at]
    # A grid through every deadline, plus the last float before each one.
    sweeps = {math.nextafter(e, 0) for ev in events for e in ev[1:]}
    for now in sorted(sweeps | set(map(float, range(30, 1600, 5)))):
        clock.now = now
        wake = t._sweep_due(now)
        upcoming = [min(e for e in ev if e > now) for ev in events if ev[-1] > now]
        if upcoming:
            assert now < wake <= min(upcoming)  # never sleeps past a deadline
        else:
            assert wake is None

    frames = [data for _, data in t._sock.log[: len(msgs)]]
    for i, frame in enumerate(frames):
        assert [at for at, data in t._sock.log if data == frame] == events[i][:4]
    assert gave_up == [(ev[-1], msg) for ev, msg in zip(events, msgs)]
    assert (t.gave_up, t.retransmits, t.pending_count) == (5, 15, 0)
    assert t.bytes_sent == len(msgs) * retry.MAX_ATTEMPTS * len(wire.encode(msgs[0], 1))


def test_one_timer_serves_a_thousand_reliable_sends():
    async def run():
        loop = asyncio.get_running_loop()
        a, b = await _pair()
        got = []
        b.on_message = got.append
        armed, ran_after_close = [], []
        call_at, call_later = loop.call_at, loop.call_later

        def traced(callback):
            def fire(*args):
                if a._closed:
                    ran_after_close.append(callback)
                callback(*args)
            return fire

        def arm(schedule):
            def wrapper(when, callback, *args, **kwargs):
                if getattr(callback, "__self__", None) not in (a, b):
                    return schedule(when, callback, *args, **kwargs)
                handle = schedule(when, traced(callback), *args, **kwargs)
                armed.append(handle)
                return handle
            return wrapper

        loop.call_at, loop.call_later = arm(call_at), arm(call_later)
        start = loop.time()
        for i in range(1000):
            a.send(M.Notification(src=0, dst=1, topic=i, event_id=i))
            if i % 50 == 49:  # bursts the loopback buffer absorbs
                assert await a.drain(2.0)
        elapsed = loop.time() - start
        assert sorted(m.topic for m in got) == list(range(1000))
        retry = a.retry
        assert len(armed) <= 1 + elapsed / (retry.BASE_DELAY * (1 - retry.JITTER / 2))

        a.send(M.Notification(src=0, dst=1, topic=0, event_id=0))  # close with a sweep armed
        a.close(); b.close()
        closed_at = loop.time()
        await asyncio.sleep(max(h.when() for h in armed) - closed_at + 0.05)
        assert ran_after_close == []
        assert all(h.cancelled() or h.when() <= closed_at for h in armed)
    asyncio.run(run())


def test_unknown_destination_drops_immediately():
    async def run():
        a = await UdpTransport.create(0, random.Random(1))
        assert not a.send(M.Probe(src=0, dst=99, target=99))
        assert a.dropped["Probe"] == 1
        a.close()
    asyncio.run(run())


def test_swim_kinds_ride_unreliable():
    async def run():
        a, b = await _pair()
        got = []
        b.on_message = got.append
        a.send(M.Probe(src=0, dst=1, target=1, incarnation=0))
        await asyncio.sleep(0.1)
        assert [m.kind for m in got] == ["Probe"]
        assert a.pending_count == 0  # no ack awaited, no retransmit state
        a.close(); b.close()
    asyncio.run(run())


def test_malformed_datagrams_are_counted_not_fatal():
    async def run():
        a, b = await _pair()
        got = []
        b.on_message = got.append
        a._sock.sendto(b"garbage{{{", b.local_addr)
        a.send(M.RelayInstall(src=0, dst=1, topic=5, target_id=5, origin=0, hops=1))
        assert await a.drain(2.0)
        assert b.malformed == 1
        assert [m.kind for m in got] == ["RelayInstall"]
        a.close(); b.close()
    asyncio.run(run())


def test_type_confused_datagrams_never_reach_the_read_callback():
    # Each of these either crashed asyncio's _read_ready under the JSON
    # codec (acked, then TypeError in dedup; RecursionError in json.loads),
    # is a frame of the previous version, or is a v3 frame that lies about
    # itself.
    v1_type_confused = (
        b'{"v":1,"k":"Notification","n":[1],"s":"x","d":null,'
        b'"p":{"topic":{"a":1},"hops":"many"}}'
    )
    exchange = wire.encode(M.PsExchangeRequest(src=0, dst=1, view=[(1, 2, 3)]), 1)
    spanned = M.Notification(src=0, dst=1, topic=1, event_id=1)
    spanned.span = ("e1", "n0x0", "flood")
    spanned = wire.encode(spanned, 2)
    hostile = [
        v1_type_confused,
        b"[" * 60000,
        b"\x02" + wire.encode(M.RelayInstall(src=0, dst=1, topic=5, target_id=5), 1)[1:],  # v2
        exchange[:1] + b"\x7f" + exchange[2:],          # wrong kind code
        exchange[:26] + b"\xff\xff" + exchange[28:],    # count overruns the datagram
        spanned[:58] + b"\xff\xff\xfe\xfd",             # span bit set, garbage trailer
    ]

    async def run():
        a, b = await _pair()
        got, loop_errors = [], []
        b.on_message = got.append
        asyncio.get_running_loop().set_exception_handler(
            lambda loop, context: loop_errors.append(context)
        )
        for datagram in hostile:
            a._sock.sendto(datagram, b.local_addr)
        await asyncio.sleep(0.1)
        assert b.malformed == len(hostile) == 6
        assert got == [] and b.bytes_sent == 0  # nothing delivered, nothing acked
        a.send(M.RelayInstall(src=0, dst=1, topic=5, target_id=5, origin=0, hops=1))
        assert await a.drain(2.0)
        assert [m.kind for m in got] == ["RelayInstall"]
        assert loop_errors == []
        a.close(); b.close()
    asyncio.run(run())


def test_bytes_sent_counts_every_datagram_on_the_wire():
    async def run():
        retry = _retry(MAX_ATTEMPTS=4, BASE_DELAY=0.02, MAX_DELAY=0.05)
        a, b = await _pair(retry=retry)
        b.on_message = lambda m: None
        # Lose the first ack: a retransmits, b re-acks the duplicate.
        deliver, lost = a._on_datagram, []
        a._on_datagram = lambda data, addr: (
            deliver(data, addr) if lost else lost.append(data)
        )
        msg = M.Notification(src=0, dst=1, topic=1, event_id=1)
        a.send(msg)
        assert await a.drain(2.0)
        assert (a.retransmits, b.duplicates) == (1, 1)
        assert a.bytes_sent == 2 * len(wire.encode(msg, 1))
        assert b.bytes_sent == 2 * len(wire.encode_ack([1], 1, 0)) == 2 * len(lost[0])
        a.close(); b.close()
    asyncio.run(run())


def test_counters_mirror_network_shape():
    async def run():
        a, b = await _pair()
        b.on_message = lambda m: None
        a.send(M.Notification(src=0, dst=1, topic=1, event_id=1))
        await a.drain(2.0)
        assert a.sent["Notification"] == 1
        assert b.delivered["Notification"] == 1
        assert a.sent_by_addr[0] == 1
        assert b.delivered_by_addr[1] == 1
        assert a.bytes_sent > 0
        a.close(); b.close()
    asyncio.run(run())


def test_a_thousand_reliable_sends_are_acked_in_runs():
    async def run():
        a, b = await _pair()
        got, acks = [], []
        b.on_message = got.append
        deliver = a._on_datagram  # a hears nothing but acks
        a._on_datagram = lambda data, addr: (acks.append(data), deliver(data, addr))
        for i in range(1000):
            a.send(M.Notification(src=0, dst=1, topic=i, event_id=i))
            if i % 50 == 49:  # bursts the loopback buffer absorbs
                assert await a.drain(2.0)
        assert sorted(m.topic for m in got) == list(range(1000))
        runs = [wire.decode(ack) for ack in acks]
        assert all(msg is None for msg, _ in runs)
        assert sorted(seq for _, seqs in runs for seq in seqs) == list(range(1, 1001))
        assert len(acks) < 250
        assert (a.pending_count, a.retransmits) == (0, 0)
        a.close(); b.close()
    asyncio.run(run())


# ----------------------------------------------------------------------
# The drained batch, against a fake socket
# ----------------------------------------------------------------------
PEER_A, PEER_B = ("10.0.0.1", 4000), ("10.0.0.2", 4000)


class _Socket:
    """``recvfrom`` yields the queued ``(data, addr)`` pairs (or raises a
    queued exception), then ``BlockingIOError``; ``sendto`` logs, or
    raises the next exception of ``refuse``."""

    def __init__(self, queue=()):
        self.queue = list(queue)
        self.sent = []
        self.refuse = []
        self.fd = 7

    def recvfrom(self, bufsize):
        if not self.queue:
            raise BlockingIOError
        item = self.queue.pop(0)
        if isinstance(item, BaseException):
            raise item
        return item

    def sendto(self, data, addr):
        if self.refuse:
            raise self.refuse.pop(0)
        self.sent.append((data, addr))

    def fileno(self):
        return self.fd

    def close(self):
        self.fd = -1


def _fake(queue=(), **kwargs):
    """A transport at address 1 on a fake socket and loop; it knows peer 0."""
    t = UdpTransport(1, random.Random(0), **kwargs)
    t._loop, t._sock = _Clock(), _Socket(queue)
    t.endpoints[0] = PEER_A
    return t


def _frame(seq, src=0, cls=M.Notification):
    """A datagram from ``src`` with sequence number ``seq``."""
    if cls is M.Notification:
        return wire.encode(M.Notification(src=src, dst=1, topic=seq, event_id=seq), seq)
    return wire.encode(cls(src=src, dst=1, target=1), seq)


def _acks(t):
    return [(wire.decode(data)[1], addr) for data, addr in t._sock.sent]


def test_one_ack_per_source_per_readiness_in_arrival_order():
    t = _fake([
        (_frame(1), PEER_A), (_frame(5, src=2), PEER_B), (_frame(2), PEER_A),
        (_frame(1), PEER_A),  # a retransmission: re-acked, not delivered
        (_frame(6, src=2), PEER_B),
    ])
    got = []
    t.on_message = got.append
    t._on_readable()
    assert _acks(t) == [((1, 2, 1), PEER_A), ((5, 6), PEER_B)]
    assert t._sock.sent[0][0] == wire.encode_ack([1, 2, 1], 1, 0)
    assert t._sock.sent[1][0] == wire.encode_ack([5, 6], 1, 2)
    assert [m.topic for m in got] == [1, 5, 2, 6]
    assert t.duplicates == 1
    assert t.bytes_sent == sum(len(data) for data, _ in t._sock.sent)


class _Dice:
    """An rng whose ``random()`` returns the given values in turn."""

    def __init__(self, *values):
        self.values = list(values)

    def random(self):
        return self.values.pop(0)


def test_lost_malformed_and_swim_datagrams_join_no_run():
    queue = [
        (_frame(1), PEER_A),               # lost to the loss dice
        (b"garbage", PEER_A),              # malformed
        (_frame(2, cls=M.Probe), PEER_A),  # SWIM: unreliable, never acked
    ]
    t = _fake(queue + [(_frame(3), PEER_A)], loss_rate=0.5)
    t.rng = _Dice(0.1, 0.9, 0.9, 0.9)
    t._on_readable()
    assert _acks(t) == [((3,), PEER_A)]
    assert (t.loss_injected, t.malformed, t.delivered["Probe"]) == (1, 1, 1)

    t = _fake(queue, loss_rate=0.5)
    t.rng = _Dice(0.1, 0.9, 0.9)
    t._on_readable()
    assert t._sock.sent == []


def test_acks_go_out_when_on_message_raises_mid_batch():
    t = _fake([(_frame(seq), PEER_A) for seq in (1, 2, 3)])

    def on_message(msg):
        if msg.topic == 2:
            raise RuntimeError("handler bug")

    t.on_message = on_message
    with pytest.raises(RuntimeError):
        t._on_readable()
    assert _acks(t) == [((1, 2), PEER_A)]
    t._on_readable()  # the next readiness reads on
    assert _acks(t) == [((1, 2), PEER_A), ((3,), PEER_A)]


def test_close_inside_on_message_stops_the_drain():
    t = _fake([(_frame(seq), PEER_A) for seq in (1, 2, 3)])
    got = []

    def on_message(msg):
        got.append(msg)
        t.close()

    t.on_message = on_message
    t._on_readable()
    assert [m.topic for m in got] == [1]
    assert t._sock.sent == [] and len(t._sock.queue) == 2  # nothing more read or sent
    assert (t._loop.removed, t._sock.fileno()) == ([7], -1)
    t.close()  # a second close is a no-op
    assert t._loop.removed == [7]


def test_a_backlog_takes_one_callback_per_drain_bound():
    n = 2 * _DRAIN_BATCH + 1
    t = _fake([(_frame(seq), PEER_A) for seq in range(1, n + 1)])
    callbacks = 0
    while t._sock.queue:  # readable while anything is queued
        t._on_readable()
        callbacks += 1
    assert callbacks == math.ceil(n / _DRAIN_BATCH) == 3
    assert [len(seqs) for seqs, _ in _acks(t)] == [_DRAIN_BATCH, _DRAIN_BATCH, 1]
    assert t.delivered["Notification"] == n


# ----------------------------------------------------------------------
# Raw-socket errors never escape
# ----------------------------------------------------------------------
SOCKET_ERRORS = [BlockingIOError(), ConnectionRefusedError(111, "Connection refused")]


@pytest.mark.parametrize("error", SOCKET_ERRORS, ids=["EAGAIN", "ECONNREFUSED"])
def test_a_refused_reliable_send_stays_pending_and_is_retransmitted(error):
    t = _fake()
    t._sock.refuse.append(error)
    msg = M.Notification(src=1, dst=0, topic=1, event_id=1)
    assert t.send(msg)
    assert (t.pending_count, t._sock.sent) == (1, [])
    t._sweep_due(t._pending[1].deadline)
    assert t._sock.sent == [(wire.encode(msg, 1), PEER_A)]
    assert (t.retransmits, t.pending_count) == (1, 1)


@pytest.mark.parametrize("error", SOCKET_ERRORS, ids=["EAGAIN", "ECONNREFUSED"])
def test_a_refused_unreliable_send_counts_as_dropped(error):
    t = _fake()
    t._sock.refuse.append(error)
    assert not t.send(M.Probe(src=1, dst=0, target=0))
    assert (t.dropped["Probe"], t.pending_count, t._sock.sent) == (1, 0, [])


@pytest.mark.parametrize("error", SOCKET_ERRORS, ids=["EAGAIN", "ECONNREFUSED"])
def test_a_refused_retransmit_is_one_more_lost_attempt(error):
    t = _fake()
    t.send(M.Notification(src=1, dst=0, topic=1, event_id=1))
    t._sock.refuse.append(error)
    t._sweep_due(t._pending[1].deadline)
    assert (t.retransmits, t._pending[1].attempts, len(t._sock.sent)) == (1, 2, 1)


@pytest.mark.parametrize("error", SOCKET_ERRORS, ids=["EAGAIN", "ECONNREFUSED"])
def test_a_refused_ack_flush_does_not_escape(error):
    t = _fake([(_frame(1), PEER_A)])
    t._sock.refuse.append(error)
    t._on_readable()
    assert (t.delivered["Notification"], t._sock.sent) == (1, [])
    t._sock.queue.append((_frame(1), PEER_A))  # the sender retransmits
    t._on_readable()
    assert (_acks(t), t.duplicates) == ([((1,), PEER_A)], 1)


def test_receive_errors_are_logged_at_debug(caplog):
    refused = ConnectionRefusedError(111, "Connection refused")
    t = _fake([(_frame(1), PEER_A), refused, (_frame(2), PEER_A)])
    with caplog.at_level(logging.DEBUG, logger="repro.net.transport"):
        t._on_readable()
    assert [r.levelno for r in caplog.records] == [logging.DEBUG]
    assert "Connection refused" in caplog.records[0].getMessage()
    assert _acks(t) == [((1,), PEER_A)]
    t._on_readable()
    assert _acks(t) == [((1,), PEER_A), ((2,), PEER_A)]


def test_close_is_idempotent_on_a_real_socket():
    async def run():
        a = await UdpTransport.create(0, random.Random(1))
        sock = a._sock
        a.close()
        assert sock.fileno() == -1
        a.close()
        assert not a.send(M.Probe(src=0, dst=0, target=0))
    asyncio.run(run())
