"""Tests for the composable transport fault models."""

import random

import pytest

from repro.core.config import VitisConfig
from repro.faults.models import (
    CompositeFault,
    FaultModel,
    LinkLoss,
    MessageLoss,
    Partition,
    SlowLinks,
    _stable_unit,
)
from repro.sim.capacity import NodeCapacity


class _PoisonedRng:
    """An RNG whose use is a test failure (zero-cost-off verification)."""

    def random(self):  # pragma: no cover - only hit on regression
        raise AssertionError("RNG consulted on a path that must not draw")


class TestFaultModelBase:
    def test_perfect_network(self):
        m = FaultModel()
        assert not m.drop(1, 2, "notify", 0.0)
        assert not m.severed(1, 2, 0.0)
        assert m.extra_delay(1, 2, 0.0) == 0.0
        assert m.injected == 0


class TestMessageLoss:
    def test_rate_validation(self):
        with pytest.raises(ValueError):
            MessageLoss(1.5, random.Random(0))
        with pytest.raises(ValueError):
            MessageLoss(-0.1, random.Random(0))

    def test_zero_rate_draws_no_randomness(self):
        m = MessageLoss(0.0, _PoisonedRng())
        for _ in range(100):
            assert not m.drop(1, 2, "notify", 0.0)
        assert m.injected == 0

    def test_rate_one_drops_everything(self):
        m = MessageLoss(1.0, random.Random(7))
        assert all(m.drop(1, 2, "notify", 0.0) for _ in range(50))
        assert m.injected == 50

    def test_empirical_rate(self):
        m = MessageLoss(0.2, random.Random(3))
        drops = sum(m.drop(1, 2, "notify", 0.0) for _ in range(5000))
        assert 0.15 < drops / 5000 < 0.25

    def test_deterministic_under_seed(self):
        seqs = []
        for _ in range(2):
            m = MessageLoss(0.3, random.Random(11))
            seqs.append([m.drop(i, i + 1, "notify", 0.0) for i in range(200)])
        assert seqs[0] == seqs[1]

    def test_never_severed(self):
        # Loss is stochastic, not structural: repair must not key off it.
        m = MessageLoss(1.0, random.Random(0))
        assert not m.severed(1, 2, 0.0)


class TestLinkLoss:
    def test_validation(self):
        with pytest.raises(ValueError):
            LinkLoss(2.0, random.Random(0))
        with pytest.raises(ValueError):
            LinkLoss(0.1, random.Random(0), lossy_fraction=-0.5)

    def test_link_rate_is_stable(self):
        m = LinkLoss(0.4, random.Random(0), lossy_fraction=0.5, salt=3)
        rates = {(s, d): m.link_rate(s, d) for s in range(20) for d in range(20)}
        for (s, d), r in rates.items():
            assert m.link_rate(s, d) == r  # repeated queries agree
            assert r in (0.0, 0.4)

    def test_lossy_fraction_selects_roughly_that_share(self):
        m = LinkLoss(1.0, random.Random(0), lossy_fraction=0.3, salt=1)
        links = [(s, d) for s in range(40) for d in range(40) if s != d]
        lossy = sum(m.link_rate(s, d) > 0 for s, d in links)
        assert 0.2 < lossy / len(links) < 0.4

    def test_perfect_links_draw_no_randomness(self):
        m = LinkLoss(1.0, _PoisonedRng(), lossy_fraction=0.0)
        assert not m.drop(1, 2, "notify", 0.0)

    def test_lossy_link_drops_at_rate_one(self):
        m = LinkLoss(1.0, random.Random(0), lossy_fraction=1.0)
        assert m.drop(1, 2, "notify", 0.0)
        assert m.injected == 1


class TestStableUnit:
    def test_in_unit_interval_and_directed(self):
        vals = [_stable_unit(0, s, d) for s in range(30) for d in range(30)]
        assert all(0.0 <= v < 1.0 for v in vals)
        assert _stable_unit(0, 3, 7) != _stable_unit(0, 7, 3)

    def test_salt_changes_the_mapping(self):
        a = [_stable_unit(0, s, s + 1) for s in range(50)]
        b = [_stable_unit(1, s, s + 1) for s in range(50)]
        assert a != b


class TestPartition:
    def test_severs_only_cross_group_during_window(self):
        p = Partition(([1, 2], [3, 4]), start=10.0, heal_at=20.0)
        assert not p.severed(1, 3, 5.0)  # before start
        assert p.severed(1, 3, 10.0)
        assert p.severed(3, 1, 15.0)
        assert not p.severed(1, 2, 15.0)  # same group
        assert not p.severed(1, 3, 20.0)  # healed

    def test_unknown_nodes_unaffected(self):
        p = Partition(([1], [2]), start=0.0)
        assert not p.severed(1, 99, 5.0)
        assert not p.severed(99, 98, 5.0)

    def test_drop_is_deterministic_and_counted(self):
        p = Partition(([1], [2]), start=0.0, heal_at=10.0)
        assert p.drop(1, 2, "notify", 5.0)
        assert not p.drop(1, 2, "notify", 10.0)
        assert p.injected == 1

    def test_heal_before_start_rejected(self):
        with pytest.raises(ValueError):
            Partition(([1], [2]), start=5.0, heal_at=1.0)

    def test_halves_split_evenly_and_deterministically(self):
        addrs = list(range(11))
        p1 = Partition.halves(addrs, start=0.0)
        p2 = Partition.halves(addrs, start=0.0)
        groups1 = {}
        for a in addrs:
            groups1.setdefault(p1._group_of[a], []).append(a)
        assert sorted(len(g) for g in groups1.values()) == [5, 6]
        assert p1._group_of == p2._group_of
        # Shuffled split is deterministic under a seeded RNG too.
        p3 = Partition.halves(addrs, rng=random.Random(5))
        p4 = Partition.halves(addrs, rng=random.Random(5))
        assert p3._group_of == p4._group_of


class TestSlowLinks:
    def test_validation(self):
        with pytest.raises(ValueError):
            SlowLinks(-1.0)
        with pytest.raises(ValueError):
            SlowLinks(1.0, slow_fraction=1.5)

    def test_delay_is_stable_and_fractional(self):
        m = SlowLinks(2.5, slow_fraction=0.25, salt=2)
        links = [(s, d) for s in range(40) for d in range(40) if s != d]
        delays = {l: m.extra_delay(*l, 0.0) for l in links}
        assert set(delays.values()) <= {0.0, 2.5}
        slow = sum(v > 0 for v in delays.values())
        assert 0.15 < slow / len(links) < 0.35
        for (s, d), v in delays.items():
            assert m.extra_delay(s, d, 99.0) == v

    def test_never_drops(self):
        m = SlowLinks(5.0, slow_fraction=1.0)
        assert not m.drop(1, 2, "notify", 0.0)
        assert m.injected == 0


class TestCompositeFault:
    def test_first_model_claims_the_drop(self):
        always = MessageLoss(1.0, random.Random(0))
        never = MessageLoss(0.0, _PoisonedRng())
        c = CompositeFault([always, never])
        assert c.drop(1, 2, "notify", 0.0)
        assert always.injected == 1 and never.injected == 0
        assert c.injected == 1

    def test_severed_if_any_constituent_severs(self):
        c = CompositeFault([MessageLoss(0.0, _PoisonedRng()),
                            Partition(([1], [2]), start=0.0)])
        assert c.severed(1, 2, 5.0)
        assert not c.severed(1, 1, 5.0)

    def test_delays_add(self):
        c = CompositeFault([SlowLinks(1.0, slow_fraction=1.0),
                            SlowLinks(0.5, slow_fraction=1.0)])
        assert c.extra_delay(1, 2, 0.0) == pytest.approx(1.5)


NAN = float("nan")


@pytest.mark.parametrize("build", [
    lambda: MessageLoss(NAN, random.Random(0)),
    lambda: LinkLoss(NAN, random.Random(0)),
    lambda: LinkLoss(0.5, random.Random(0), lossy_fraction=NAN),
    lambda: SlowLinks(extra=NAN),
    lambda: Partition(([1], [2]), start=NAN),
    lambda: Partition(([1], [2]), heal_at=NAN),
    lambda: NodeCapacity(service_rate=NAN),
    lambda: NodeCapacity(queue_depth=NAN),
    lambda: VitisConfig(gossip_period=NAN),
], ids=[
    "MessageLoss.rate", "LinkLoss.rate", "LinkLoss.lossy_fraction",
    "SlowLinks.extra", "Partition.start", "Partition.heal_at",
    "NodeCapacity.service_rate", "NodeCapacity.queue_depth",
    "VitisConfig.gossip_period",
])
def test_a_nan_parameter_is_refused(build):
    """Every comparison a constructor validates with is false for NaN,
    so each check is written ``not x >= …``: a NaN delay poisons the
    clock, a NaN partition window never activates, and a NaN cap or
    retry budget silently turns its limit off."""
    with pytest.raises(ValueError):
        build()
