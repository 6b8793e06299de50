"""repro.net.transport: loopback UDP pairs, loss, retry, dedup, give-up."""

import asyncio
import random

import pytest

from repro.faults.healing import RetryPolicy
from repro.net import wire
from repro.net.transport import UdpTransport
from repro.sim import messages as M


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
        retry = RetryPolicy(max_attempts=8, base_delay=0.02, max_delay=0.1)
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
        retry = RetryPolicy(max_attempts=3, base_delay=0.02, max_delay=0.05)
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
        a.send(M.PullRequest(src=0, dst=1, event_id=5))
        assert await a.drain(2.0)
        assert b.malformed == 1
        assert [m.kind for m in got] == ["PullRequest"]
        a.close(); b.close()
    asyncio.run(run())


def test_type_confused_datagrams_never_reach_the_read_callback():
    # Each of these either crashed asyncio's _read_ready under the JSON
    # codec (acked, then TypeError in dedup; RecursionError in json.loads)
    # or is a v2 frame that lies about itself.
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
        assert b.malformed == len(hostile) == 5
        assert got == [] and b.bytes_sent == 0  # nothing delivered, nothing acked
        a.send(M.PullRequest(src=0, dst=1, event_id=5))
        assert await a.drain(2.0)
        assert [m.kind for m in got] == ["PullRequest"]
        assert loop_errors == []
        a.close(); b.close()
    asyncio.run(run())


def test_bytes_sent_counts_every_datagram_on_the_wire():
    async def run():
        retry = RetryPolicy(max_attempts=4, base_delay=0.02, max_delay=0.05)
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
        assert b.bytes_sent == 2 * len(wire.encode_ack(1, 1, 0)) == 2 * len(lost[0])
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
