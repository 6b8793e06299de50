"""Unit tests for the bounded-inbox capacity model.

Each policy's admission rule is pinned exactly — these numbers are the
contract the dissemination gates and the overload scenario lean on — and
the deterministic policies are proven never to touch the RNG.
"""

import pytest

from repro.sim.capacity import CLASS_SHARE, CapacityModel, NodeCapacity
from repro.sim.messages import PRIO_CONTROL, PRIO_NOTIFY, PRIO_PULL


class _PoisonedRng:
    """Any draw is a test failure (for the deterministic policies)."""

    def random(self):  # pragma: no cover - failure path only
        raise AssertionError("deterministic policy must not draw randomness")


class _FixedRng:
    def __init__(self, value: float) -> None:
        self.value = value
        self.draws = 0

    def random(self):
        self.draws += 1
        return self.value


class TestNodeCapacityValidation:
    def test_defaults_are_valid(self):
        NodeCapacity()

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"service_rate": 0},
            {"queue_depth": 0},
            {"policy": "newest-ish"},
        ],
    )
    def test_bad_values_are_rejected(self, kwargs):
        with pytest.raises(ValueError):
            NodeCapacity(**kwargs)

    def test_red_requires_an_rng(self):
        with pytest.raises(ValueError, match="rng"):
            CapacityModel(NodeCapacity(policy="red"))


class TestDropNewest:
    def _model(self, depth=4, rate=2):
        return CapacityModel(
            NodeCapacity(service_rate=rate, queue_depth=depth,
                         policy="drop_newest"),
            rng=_PoisonedRng(),
        )

    def test_fills_then_refuses_regardless_of_priority(self):
        m = self._model(depth=4)
        assert all(m.offer(0, 1, "notify", 0.0) for _ in range(4))
        # Queue full: even control is tail-dropped.
        assert not m.offer(0, 1, "heartbeat", 0.0)
        assert m.shed["heartbeat"] == 1
        assert m._inboxes[1].backlog == 4

    def test_window_advance_drains_service_rate(self):
        m = self._model(depth=4, rate=2)
        for _ in range(4):
            m.offer(0, 1, "notify", 0.0)
        # One elapsed window frees exactly service_rate slots.
        assert m.offer(0, 1, "notify", 1.0)
        assert m._inboxes[1].backlog == 3
        # Three elapsed windows drain everything (no negative backlog).
        assert m.offer(0, 1, "notify", 4.0)
        assert m._inboxes[1].backlog == 1

    def test_inboxes_are_independent(self):
        m = self._model(depth=1)
        assert m.offer(0, 1, "notify", 0.0)
        assert not m.offer(0, 1, "notify", 0.0)
        assert m.offer(0, 2, "notify", 0.0)


class TestDropLowest:
    def _model(self, depth=20):
        return CapacityModel(
            NodeCapacity(service_rate=1, queue_depth=depth,
                         policy="drop_lowest"),
            rng=_PoisonedRng(),
        )

    def test_class_thresholds_are_the_shares(self):
        # depth=20: pull admits while backlog < 11, notify < 14,
        # lookup < 17, control < 20.
        m = self._model(depth=20)
        for threshold, kind in [(11, "pull"), (14, "notify"),
                                (17, "lookup"), (20, "heartbeat")]:
            while m.offer(0, 1, kind, 0.0):
                pass
            assert m._inboxes[1].backlog == threshold
        assert m.shed["pull"] == 1 and m.shed["heartbeat"] == 1

    def test_decision_depends_only_on_backlog(self):
        """Trunk reservation is arrival-order independent: any interleave
        producing the same backlog admits/refuses the same next message."""
        depth = 10  # notify share: admitted while backlog < 7
        a, b = self._model(depth), self._model(depth)
        for _ in range(7):
            a.offer(0, 1, "notify", 0.0)
        for kind in ("heartbeat", "lookup", "notify", "heartbeat",
                     "lookup", "heartbeat", "heartbeat"):
            b.offer(0, 1, kind, 0.0)
        assert a._inboxes[1].backlog == b._inboxes[1].backlog == 7
        assert a.offer(0, 1, "notify", 0.0) == b.offer(0, 1, "notify", 0.0) is False

    def test_unknown_kind_is_treated_as_data(self):
        m = self._model(depth=10)
        for _ in range(7):
            m.offer(0, 1, "heartbeat", 0.0)
        # Unknown kinds default to the notification class (share 0.70).
        assert not m.offer(0, 1, "mystery", 0.0)
        assert m.shed_by_class[PRIO_NOTIFY] == 1


class TestRed:
    def _model(self, rng, depth=20, start=0.5):
        red = type("Red", (NodeCapacity,), {"RED_START": start})
        return CapacityModel(
            red(service_rate=1, queue_depth=depth, policy="red"), rng=rng
        )

    def test_below_start_admits_without_drawing(self):
        rng = _FixedRng(0.0)
        m = self._model(rng, depth=20)  # control share 20, ramp starts at 10
        for _ in range(9):
            assert m.offer(0, 1, "heartbeat", 0.0)
        assert rng.draws == 0

    def test_at_limit_refuses_without_drawing(self):
        rng = _FixedRng(0.99)
        m = self._model(rng, depth=4, start=0.0)
        # With start=0 every admission below the limit draws.
        while m.offer(0, 1, "heartbeat", 0.0):
            pass
        draws_at_fill = rng.draws
        assert not m.offer(0, 1, "heartbeat", 0.0)  # backlog == limit
        assert rng.draws == draws_at_fill  # the at-limit refusal is free

    def test_ramp_probability_is_linear(self):
        # depth=20, control limit 20, start 10: at backlog 15 the drop
        # probability is (15-10)/(20-10) = 0.5.
        m_lo = self._model(_FixedRng(0.49), depth=20)
        m_hi = self._model(_FixedRng(0.51), depth=20)
        for m in (m_lo, m_hi):
            for _ in range(15):
                m._box(1).backlog += 1  # place the backlog directly
        assert not m_lo.offer(0, 1, "heartbeat", 0.0)  # 0.49 < 0.5 → drop
        assert m_hi.offer(0, 1, "heartbeat", 0.0)      # 0.51 ≥ 0.5 → admit


class TestBackpressure:
    def _model(self, depth=8, at=0.75):
        watermark = type("Watermark", (NodeCapacity,), {"BACKPRESSURE_AT": at})
        return CapacityModel(
            watermark(service_rate=1, queue_depth=depth, policy="drop_newest"),
            rng=_PoisonedRng(),
        )

    def test_never_offered_destination_is_clear(self):
        m = self._model()
        assert not m.backpressured(7, 0.0)
        assert m.backpressure_signals == 0

    def test_signals_exactly_past_the_watermark(self):
        m = self._model(depth=8, at=0.75)  # watermark: backlog >= 6
        for _ in range(5):
            m.offer(0, 1, "notify", 0.0)
        assert not m.backpressured(1, 0.0)
        m.offer(0, 1, "notify", 0.0)
        assert m.backpressured(1, 0.0)
        assert m.backpressured(1, 0.0)
        assert m.backpressure_signals == 2

    def test_drain_clears_the_signal(self):
        m = self._model(depth=8, at=0.75)
        for _ in range(8):
            m.offer(0, 1, "notify", 0.0)
        assert m.backpressured(1, 0.0)
        assert not m.backpressured(1, 6.0)  # 6 windows x rate 1 → backlog 2


class TestReads:
    def test_shed_and_survival_fractions(self):
        m = CapacityModel(
            NodeCapacity(service_rate=1, queue_depth=10, policy="drop_lowest"),
            rng=_PoisonedRng(),
        )
        assert m.shed_fraction() == 0.0
        assert m.control_survival() == 1.0
        assert m.data_shed_fraction() == 0.0
        for _ in range(10):
            m.offer(0, 1, "notify", 0.0)  # 7 admitted, 3 shed
        assert m.shed_fraction() == pytest.approx(0.3)
        assert m.data_shed_fraction() == pytest.approx(0.3)
        assert m.control_survival() == 1.0  # no control offered yet
        for _ in range(3):
            m.offer(0, 1, "heartbeat", 0.0)  # all admitted (share 1.0)
        assert m.control_survival() == 1.0
        assert m.offered_by_class[PRIO_CONTROL] == 3
        assert m.offered_by_class[PRIO_NOTIFY] == 10

    def test_class_shares_cover_every_priority(self):
        assert set(CLASS_SHARE) == {PRIO_PULL, PRIO_NOTIFY, 2, PRIO_CONTROL}
        assert CLASS_SHARE[PRIO_PULL] < CLASS_SHARE[PRIO_NOTIFY] \
            < CLASS_SHARE[2] < CLASS_SHARE[PRIO_CONTROL] == 1.0
