"""Tests for the node registry and message transport."""

import pytest

from repro.sim.engine import Engine
from repro.sim.messages import Message, Notification
from repro.sim.network import ConstantLatency, Network, UniformLatency
from repro.sim.node import BaseNode


class Recorder(BaseNode):
    def __init__(self, address):
        super().__init__(address)
        self.received = []

    def on_message(self, msg):
        self.received.append(msg)


def make_net(latency=None):
    e = Engine()
    return e, Network(e, latency)


class TestRegistry:
    def test_add_external_node(self):
        _, net = make_net()
        n = Recorder(5)
        net.add(n)
        assert list(net) == [n] and n.network is net

    def test_add_duplicate_rejected(self):
        _, net = make_net()
        net.add(Recorder(1))
        with pytest.raises(ValueError):
            net.add(Recorder(1))

    def test_liveness(self):
        _, net = make_net()
        n = net.add(Recorder(0))
        assert not n.alive
        n.start()
        assert n.alive
        n.stop()
        assert not n.alive

    def test_live_counts(self):
        _, net = make_net()
        nodes = [net.add(Recorder(a)) for a in range(4)]
        for n in nodes[:3]:
            n.start()
        assert [n.address for n in net if n.alive] == [0, 1, 2]
        assert len(net) == 4


class TestTransport:
    def test_send_delivers_via_engine(self):
        e, net = make_net()
        a, b = net.add(Recorder(0)), net.add(Recorder(1))
        a.start(), b.start()
        net.send(Message(src=a.address, dst=b.address))
        assert b.received == []  # not yet: engine hasn't run
        e.run()
        assert len(b.received) == 1

    def test_send_schedules_the_delivery_itself(self):
        # No closure per message: the event is ``_deliver`` plus the
        # message as its argument.
        e, net = make_net()
        net.add(Recorder(0)).start()
        msg = Message(src=0, dst=0)
        net.send(msg)
        ((_, _, event),) = e._queue
        assert event.callback == net._deliver and event.args == (msg,)

    def test_drop_to_dead_node(self):
        e, net = make_net()
        a, b = net.add(Recorder(0)), net.add(Recorder(1))
        a.start()  # b stays down
        net.send(Message(src=0, dst=1))
        e.run()
        assert b.received == []
        assert net.dropped["Message"] == 1

    def test_drop_to_unknown_address(self):
        e, net = make_net()
        a = net.add(Recorder(0))
        a.start()
        net.send(Message(src=0, dst=77))
        e.run()
        assert net.dropped["Message"] == 1

    def test_traffic_accounting(self):
        e, net = make_net()
        a, b = net.add(Recorder(0)), net.add(Recorder(1))
        a.start(), b.start()
        net.send(Notification(src=0, dst=1, topic=3))
        e.run()
        assert net.sent["Notification"] == 1
        assert net.delivered["Notification"] == 1

    def test_reset_traffic(self):
        _, net = make_net()
        a, b = net.add(Recorder(0)), net.add(Recorder(1))
        a.start(), b.start()
        net.send(Message(src=0, dst=1))
        net.reset_traffic()
        assert net.sent == {}

    def test_constant_latency_delays_delivery(self):
        e = Engine()
        net = Network(e, ConstantLatency(2.5))
        a, b = net.add(Recorder(0)), net.add(Recorder(1))
        a.start(), b.start()
        net.send(Message(src=0, dst=1))
        e.run()
        assert e.now == 2.5


class TestPerAddressAccounting:
    def test_sent_delivered_tallies(self):
        e, net = make_net()
        a, b = net.add(Recorder(0)), net.add(Recorder(1))
        a.start(), b.start()
        net.send(Message(src=0, dst=1))
        net.send(Message(src=0, dst=1))
        net.send(Message(src=1, dst=0))
        e.run()
        assert net.sent_by_addr[0] == 2 and net.sent_by_addr[1] == 1
        assert net.delivered_by_addr[1] == 2 and net.delivered_by_addr[0] == 1

    def test_capacity_shed_is_tallied_per_destination(self):
        from repro.sim.capacity import CapacityModel, NodeCapacity

        e, net = make_net()
        a, b = net.add(Recorder(0)), net.add(Recorder(1))
        a.start(), b.start()
        net.capacity = CapacityModel(
            NodeCapacity(service_rate=1, queue_depth=1, policy="drop_newest")
        )
        net.send(Message(src=0, dst=1))
        assert net.send(Message(src=0, dst=1)) is False  # inbox full
        e.run()
        assert len(b.received) == 1
        assert net.shed["Message"] == 1
        assert net.shed_by_addr[1] == 1
        assert net.sent_by_addr[0] == 2  # sheds still count as sent

    def test_account_logical_mirrors_the_transport_tallies(self):
        _, net = make_net()
        net.account_logical(3, 4, "notify", delivered=True)
        net.account_logical(3, 4, "notify", delivered=False)
        assert net.sent_by_addr[3] == 2
        assert net.delivered_by_addr[4] == 1
        assert net.shed["notify"] == 1 and net.shed_by_addr[4] == 1

    def test_hotspots_ranks_by_inbound_load(self):
        _, net = make_net()
        for _ in range(5):
            net.account_logical(0, 1, "notify", delivered=True)
        for _ in range(3):
            net.account_logical(0, 2, "notify", delivered=False)
        net.account_logical(0, 3, "notify", delivered=True)
        top = net.hotspots(2)
        assert [h["address"] for h in top] == [1, 2]
        assert top[0] == {"address": 1, "inbound": 5, "delivered": 5,
                          "shed": 0, "sent": 0}
        assert top[1]["shed"] == 3

    def test_hotspots_ties_break_by_address(self):
        # Equal inbound load must order by ascending address regardless
        # of accounting order, so rendered hotspot tables are usable as
        # CI fixtures.
        _, net = make_net()
        for dst in (7, 3, 5):  # deliberately unsorted insertion order
            net.account_logical(0, dst, "notify", delivered=True)
            net.account_logical(1, dst, "notify", delivered=True)
        assert [h["address"] for h in net.hotspots()] == [3, 5, 7]

        # A permuted accounting order yields the identical table.
        _, other = make_net()
        for dst in (5, 7, 3):
            other.account_logical(1, dst, "notify", delivered=True)
            other.account_logical(0, dst, "notify", delivered=True)
        assert other.hotspots() == net.hotspots()

    def test_hotspots_mixed_load_and_ties(self):
        _, net = make_net()
        for _ in range(2):
            net.account_logical(0, 9, "notify", delivered=True)
            net.account_logical(0, 2, "notify", delivered=False)
        net.account_logical(0, 4, "notify", delivered=True)
        # 9 and 2 tie at 2; 4 trails with 1.
        assert [(h["address"], h["inbound"]) for h in net.hotspots()] == \
            [(2, 2), (9, 2), (4, 1)]

    def test_reset_traffic_clears_the_new_tallies(self):
        _, net = make_net()
        net.account_logical(0, 1, "notify", delivered=False)
        net.reset_traffic()
        assert not net.sent_by_addr and not net.delivered_by_addr
        assert not net.shed and not net.shed_by_addr
        assert net.hotspots() == []


class TestDropEvent:
    def test_drop_to_dead_node_emits_counter_and_event(self):
        import io
        import json

        from repro import obs

        e, net = make_net()
        net.add(Recorder(0)).start()
        net.add(Recorder(1))  # stays down
        buf = io.StringIO()
        tel = obs.Telemetry(trace=buf)
        net.telemetry = tel
        net.send(Message(src=0, dst=1))
        e.run()
        tel.close()
        assert net.dropped["Message"] == 1
        dump = tel.metrics_dump()
        assert dump["metrics"]["counters"][
            "drops_total{kind=Message,site=network}"
        ] == 1.0
        events = [json.loads(line) for line in buf.getvalue().splitlines()]
        drops = [ev for ev in events if ev["ev"] == "drop"]
        assert len(drops) == 1
        ev = drops[0]
        assert (ev["site"], ev["kind"], ev["src"], ev["dst"]) == (
            "network", "Message", 0, 1,
        )


class TestLatencyModels:
    def test_constant_rejects_negative(self):
        with pytest.raises(ValueError):
            ConstantLatency(-1.0)

    def test_uniform_in_range(self, rng):
        m = UniformLatency(1.0, 2.0, rng)
        for _ in range(50):
            assert 1.0 <= m.delay(0, 1) <= 2.0

    def test_uniform_rejects_bad_range(self, rng):
        with pytest.raises(ValueError):
            UniformLatency(2.0, 1.0, rng)

    def test_uniform_draws_what_random_uniform_draws(self):
        # ``delay`` spells out ``random.uniform``'s expression to save its
        # frame; every seeded deployed trajectory rides on the two
        # agreeing to the last bit.
        import random

        for low, high in ((0.01, 0.15), (0.0, 0.0), (1.0, 2.0)):
            m = UniformLatency(low, high, random.Random(7))
            ref = random.Random(7)
            assert all(m.delay(0, 1) == ref.uniform(low, high) for _ in range(100_000 // 3))


class TestBaseNode:
    def test_joined_at_records_time(self):
        e, net = make_net()
        n = net.add(Recorder(0))
        e.schedule(5.0, n.start)
        e.run()
        assert n.joined_at == 5.0

    def test_repr(self):
        assert "addr=3" in repr(Recorder(3))
