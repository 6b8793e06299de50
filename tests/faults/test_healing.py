"""Tests for the healing policy, the flood's bounded-retry gate, and the
faulted network transport."""

import random

import pytest

from repro.core.config import VitisConfig
from repro.core.dissemination import _make_transmit
from repro.core.protocol import VitisProtocol
from repro.faults.healing import HealingPolicy
from repro.faults.models import FaultModel, MessageLoss, SlowLinks
from repro.sim.engine import Engine
from repro.sim.messages import Notification
from repro.sim.metrics import DisseminationRecord
from repro.sim.network import Network
from repro.sim.node import BaseNode


class _ScriptedDrops(FaultModel):
    """Drops exactly the first ``n`` transmissions offered to it."""

    def __init__(self, n: int) -> None:
        super().__init__()
        self._remaining = n

    def drop(self, src, dst, kind, now):
        if self._remaining > 0:
            self._remaining -= 1
            self.injected += 1
            return True
        return False


class TestHealingPolicy:
    def test_defaults_valid(self):
        p = HealingPolicy()
        assert p.LOOKUP_ATTEMPTS >= 1 and p.DELIVERY_RETRIES >= 0

    def test_immutable(self):
        p = HealingPolicy()
        with pytest.raises(Exception):
            p.LOOKUP_ATTEMPTS = 5


def _gate(fault_model, tries: int):
    """The flood's per-edge transmission gate over ``fault_model`` with
    ``tries`` transmissions per edge, and the record it accounts on."""
    p = VitisProtocol([[0], [0]], VitisConfig(), election_every=0, relay_every=0)
    healing = type("Tries", (HealingPolicy,), {"DELIVERY_RETRIES": tries - 1})()
    p.attach_faults(fault_model, healing)
    rec = DisseminationRecord(topic=0, event_id=0, publisher=0)
    return _make_transmit(p, rec), rec


class TestSendWithRetries:
    def test_clean_send_spends_no_retry(self):
        transmit, rec = _gate(_ScriptedDrops(0), tries=3)
        assert transmit(0, 1)
        assert (rec.faults, rec.retries) == (0, 0)

    def test_recovers_within_budget(self):
        transmit, rec = _gate(_ScriptedDrops(2), tries=3)
        assert transmit(0, 1)
        assert (rec.faults, rec.retries) == (2, 2)

    def test_lost_for_good(self):
        fm = _ScriptedDrops(5)
        transmit, rec = _gate(fm, tries=3)
        assert not transmit(0, 1)
        assert (rec.faults, rec.retries) == (3, 2)
        assert fm.injected == 3  # budget bounds the transmissions offered


class _SinkNode(BaseNode):
    def __init__(self, address: int) -> None:
        super().__init__(address)
        self.received = []

    def on_message(self, msg) -> None:
        self.received.append(msg)


def _two_node_net():
    engine = Engine()
    net = Network(engine)
    a = net.add(_SinkNode(0))
    b = net.add(_SinkNode(1))
    a.start()
    b.start()
    return engine, net, a, b


class TestNetworkFaultHook:
    def test_drop_counted_never_delivered(self):
        engine, net, _, b = _two_node_net()
        net.fault_model = MessageLoss(1.0, random.Random(0))
        net.send(Notification(src=0, dst=1))
        engine.run()
        assert b.received == []
        assert net.faulted["Notification"] == 1
        assert net.delivered["Notification"] == 0
        assert net.sent["Notification"] == 1  # still charged as traffic

    def test_send_sync_reports_the_drop(self):
        _, net, _, b = _two_node_net()
        net.fault_model = MessageLoss(1.0, random.Random(0))
        assert net.send_sync(Notification(src=0, dst=1)) is False
        assert b.received == []
        assert net.faulted["Notification"] == 1

    def test_extra_delay_applied(self):
        engine, net, _, b = _two_node_net()
        net.fault_model = SlowLinks(3.0, slow_fraction=1.0)
        net.send(Notification(src=0, dst=1))
        engine.run()
        assert len(b.received) == 1
        assert engine.now == pytest.approx(3.0)

    def test_no_model_is_the_perfect_transport(self):
        engine, net, _, b = _two_node_net()
        assert net.fault_model is None
        net.send(Notification(src=0, dst=1))
        engine.run()
        assert len(b.received) == 1
        assert net.faulted == {}

    def test_reset_traffic_clears_fault_counts(self):
        _, net, _, _ = _two_node_net()
        net.fault_model = MessageLoss(1.0, random.Random(0))
        net.send_sync(Notification(src=0, dst=1))
        net.reset_traffic()
        assert net.faulted == {}
