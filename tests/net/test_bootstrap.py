"""repro.net.bootstrap + collector: registry handshake and stream merge."""

import asyncio
import json
import socket

import pytest

from repro.net.bootstrap import SeedClient, SeedService
from repro.net.collector import Collector
from repro.obs import Telemetry
from repro.obs.trace import TraceWriter


def test_join_assigns_addresses_and_pushes_registry():
    async def run():
        seed = await SeedService.start()
        host, port = seed.local_addr
        a = await SeedClient.connect(host, port, "127.0.0.1", 5001)
        b = await SeedClient.connect(host, port, "127.0.0.1", 5002)
        assert (a.address, b.address) == (0, 1)
        await seed.wait_for(2, timeout=5)
        assert seed.endpoints == {0: ("127.0.0.1", 5001), 1: ("127.0.0.1", 5002)}
        # The earlier joiner hears about the later one via a push.
        for _ in range(100):
            if 1 in a.peers:
                break
            await asyncio.sleep(0.02)
        assert a.peers[1] == ("127.0.0.1", 5002)
        await a.close(); await b.close(); await seed.close()
    asyncio.run(run())


def test_disconnect_removes_member_and_rebroadcasts():
    async def run():
        seed = await SeedService.start()
        host, port = seed.local_addr
        a = await SeedClient.connect(host, port, "127.0.0.1", 5001)
        b = await SeedClient.connect(host, port, "127.0.0.1", 5002)
        await seed.wait_for(2, timeout=5)
        await b.close()
        for _ in range(100):
            if 1 not in a.peers:
                break
            await asyncio.sleep(0.02)
        assert 1 not in a.peers
        assert 1 not in seed.endpoints
        await a.close(); await seed.close()
    asyncio.run(run())


def test_dead_reports_and_driver_commands():
    async def run():
        seed = await SeedService.start()
        inbox = []
        seed.on_node_message = lambda addr, obj: inbox.append((addr, obj))
        host, port = seed.local_addr
        a = await SeedClient.connect(host, port, "127.0.0.1", 5001)
        pushes = []
        a.on_push = pushes.append
        a.report_dead(7)
        a.send({"op": "topo_report", "links": [1, 2]})
        assert seed.send_to(0, {"op": "publish", "topic": 3})
        for _ in range(100):
            if inbox and pushes and seed.reported_dead:
                break
            await asyncio.sleep(0.02)
        assert seed.reported_dead == {7: [0]}
        assert inbox == [(0, {"op": "topo_report", "links": [1, 2]})]
        assert pushes == [{"op": "publish", "topic": 3}]
        await a.close(); await seed.close()
    asyncio.run(run())


JOIN = b'{"op":"join","host":"127.0.0.1","port":5001}\n'


@pytest.mark.parametrize("bad", [
    pytest.param(b"[1]", id="list"),
    pytest.param(b"5", id="number"),
    pytest.param(b"\xff", id="not-utf8"),
    pytest.param(b'{"op":"join"}', id="join-without-endpoint"),
    pytest.param(b'{"op":"join","host":"127.0.0.1","port":"5001"}', id="join-port-not-int"),
    pytest.param(b'{"op":"join","host":7,"port":5001}', id="join-host-not-str"),
    pytest.param(b'{"op":"report_dead","addr":[1]}', id="report-dead-addr-not-int"),
])
def test_a_bad_line_is_skipped_and_the_join_after_it_is_welcomed(bad):
    async def run():
        seed = await SeedService.start()
        reader, writer = await asyncio.open_connection(*seed.local_addr)
        writer.write(bad + b"\n" + JOIN)
        reply = json.loads(await asyncio.wait_for(reader.readline(), 5))
        assert (reply["op"], reply["address"]) == ("welcome", 0)
        assert seed.endpoints == {0: ("127.0.0.1", 5001)}
        assert seed.reported_dead == {}
        writer.close()
        await seed.close()
    asyncio.run(run())


def test_a_second_join_on_one_connection_leaves_no_ghost():
    async def run():
        seed = await SeedService.start()
        reader, writer = await asyncio.open_connection(*seed.local_addr)
        writer.write(JOIN)
        assert json.loads(await asyncio.wait_for(reader.readline(), 5))["address"] == 0
        writer.write(JOIN.replace(b"5001", b"5002"))
        writer.write(b'{"op":"report_dead","addr":9}\n')  # ordered after the join
        for _ in range(100):
            if seed.reported_dead:
                break
            await asyncio.sleep(0.02)
        assert seed.endpoints == {0: ("127.0.0.1", 5001)}  # kept its first address
        writer.close()
        for _ in range(100):
            if not seed.endpoints:
                break
            await asyncio.sleep(0.02)
        assert seed.endpoints == {}
        await seed.close()
    asyncio.run(run())


def test_client_skips_a_push_that_is_not_an_object():
    async def run():
        seed = await SeedService.start()
        host, port = seed.local_addr
        a = await SeedClient.connect(host, port, "127.0.0.1", 5001)
        seed._writers[0].write(b"[1]\n")
        b = await SeedClient.connect(host, port, "127.0.0.1", 5002)
        for _ in range(100):
            if 1 in a.peers:
                break
            await asyncio.sleep(0.02)
        assert a.peers[1] == ("127.0.0.1", 5002)  # the registry push after it landed
        await a.close(); await b.close(); await seed.close()
    asyncio.run(run())


def test_collector_merges_streams_and_snapshots():
    async def run():
        col = await Collector.start()
        host, port = col.local_addr

        def stream(proc, n_events):
            # What a node process does: a proc-tagged TraceWriter over the
            # collector socket, then a metrics_snapshot record.
            sock = socket.create_connection((host, port))
            fh = sock.makefile("w", encoding="utf-8")
            tw = TraceWriter(fh, flush_every=1, base={"proc": proc})
            for i in range(n_events):
                tw.emit("span", t=float(i), trace=f"e{i}",
                        span=f"n{proc}x{i}", kind="publish", src=proc,
                        dst=proc, hop=0)
            tel = Telemetry()
            tel.metrics.counter("events_total").inc(n_events)
            tw.write_record({"ev": "metrics_snapshot", "proc": proc,
                             "snapshot": tel.snapshot()})
            tw.close()
            sock.close()

        await asyncio.gather(*(asyncio.to_thread(stream, p, 3) for p in (0, 1, 2)))
        assert await col.wait_quiescent(idle=0.3, timeout=10)
        assert sorted(col.records_by_proc.items()) == [(0, 3), (1, 3), (2, 3)]
        assert len(col.records) == 9
        assert all("proc" in r for r in col.records)

        parent = Telemetry()
        col.merge_into(parent)
        assert parent.metrics.to_dict()["counters"]["events_total"] == 9
        await col.close()
    asyncio.run(run())
