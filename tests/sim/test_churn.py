"""Tests for churn schedules."""

import random

import pytest

from repro.sim.churn import ChurnEvent, ChurnSchedule, flash_crowd
from repro.sim.engine import Engine


class TestChurnEvent:
    def test_valid_kinds(self):
        ChurnEvent(0.0, 1, "join")
        ChurnEvent(0.0, 1, "leave")

    def test_invalid_kind(self):
        with pytest.raises(ValueError):
            ChurnEvent(0.0, 1, "reboot")

    def test_negative_time(self):
        with pytest.raises(ValueError):
            ChurnEvent(-1.0, 1, "join")


class TestSchedule:
    def test_sorted_by_time(self):
        s = ChurnSchedule([ChurnEvent(2.0, 1, "join"), ChurnEvent(1.0, 2, "join")])
        assert [e.time for e in s] == [1.0, 2.0]

    def test_from_sessions(self):
        s = ChurnSchedule.from_sessions([(1, 0.0, 2.0), (2, 1.0, 3.0)])
        assert len(s) == 4
        kinds = [(e.time, e.kind) for e in s]
        assert kinds == [(0.0, "join"), (1.0, "join"), (2.0, "leave"), (3.0, "leave")]

    def test_from_sessions_rejects_inverted(self):
        with pytest.raises(ValueError):
            ChurnSchedule.from_sessions([(1, 2.0, 1.0)])


class TestGenerators:
    def test_flash_crowd(self):
        s = ChurnSchedule.flash_crowd([1, 2, 3], at=10.0)
        assert all(e.time == 10.0 and e.kind == "join" for e in s)

    def test_flash_crowd_with_spread(self, rng):
        s = ChurnSchedule.flash_crowd([1, 2, 3], at=10.0, spread=2.0, rng=rng)
        assert all(10.0 <= e.time <= 12.0 for e in s)

    def test_crashes_mirror_flash_crowd(self):
        s = ChurnSchedule.crashes([1, 2, 3], at=10.0)
        assert all(e.time == 10.0 and e.kind == "leave" for e in s)
        assert sorted(e.address for e in s) == [1, 2, 3]

    def test_crashes_with_spread(self, rng):
        s = ChurnSchedule.crashes([1, 2], at=10.0, spread=2.0, rng=rng)
        assert all(10.0 <= e.time <= 12.0 and e.kind == "leave" for e in s)


class TestSimultaneousJoinCrash:
    """The documented tie-break: at one (time, address) LEAVE sorts before
    JOIN, so a simultaneous crash+restart deterministically nets to
    *online* regardless of construction or merge order."""

    def test_leave_sorts_before_join(self):
        fwd = ChurnSchedule([
            ChurnEvent(5.0, 1, "join"), ChurnEvent(5.0, 1, "leave"),
        ])
        rev = ChurnSchedule([
            ChurnEvent(5.0, 1, "leave"), ChurnEvent(5.0, 1, "join"),
        ])
        assert [e.kind for e in fwd] == ["leave", "join"]
        assert [e.kind for e in rev] == ["leave", "join"]

    def test_merge_order_invariant(self):
        crash = ChurnSchedule.crashes([1], at=5.0)
        restart = ChurnSchedule.flash_crowd([1], at=5.0)
        a = [e.kind for e in ChurnSchedule([*crash, *restart])]
        b = [e.kind for e in ChurnSchedule([*restart, *crash])]
        assert a == b == ["leave", "join"]

    def test_applied_pair_leaves_the_node_online(self):
        e = Engine()
        online = set()
        s = ChurnSchedule([*ChurnSchedule.crashes([1], at=5.0),
                           *ChurnSchedule.flash_crowd([1], at=5.0)])
        s.apply(e, join=online.add, leave=online.discard)
        e.run()
        assert online == {1}

    def test_distinct_addresses_still_sort_by_address(self):
        s = ChurnSchedule([
            ChurnEvent(5.0, 2, "leave"), ChurnEvent(5.0, 1, "join"),
        ])
        assert [(e.address, e.kind) for e in s] == [(1, "join"), (2, "leave")]


class TestFlashCrowdHelper:
    def test_n_form_joins_the_first_n_addresses(self):
        s = flash_crowd(cycle=4, n=3, period=2.0)
        assert [(e.time, e.address, e.kind) for e in s] == [
            (8.0, 0, "join"), (8.0, 1, "join"), (8.0, 2, "join"),
        ]

    def test_addresses_form(self):
        s = flash_crowd(cycle=1, addresses=[7, 9])
        assert sorted(e.address for e in s) == [7, 9]
        assert all(e.time == 1.0 and e.kind == "join" for e in s)

    def test_spread_jitters_within_the_window(self, rng):
        s = flash_crowd(cycle=10, n=5, spread=2.0, rng=rng)
        assert all(10.0 <= e.time <= 12.0 for e in s)

    @pytest.mark.parametrize("kwargs", [
        {},                              # neither
        {"n": 3, "addresses": [1, 2]},   # both
    ])
    def test_rejects_ambiguous_population(self, kwargs):
        with pytest.raises(ValueError):
            flash_crowd(cycle=1, **kwargs)


class TestApply:
    def test_callbacks_fire_in_order(self):
        e = Engine()
        log = []
        s = ChurnSchedule.from_sessions([(1, 1.0, 3.0), (2, 2.0, 4.0)])
        n = s.apply(e, join=lambda a: log.append(("j", a, e.now)), leave=lambda a: log.append(("l", a, e.now)))
        assert n == 4
        e.run()
        assert log == [("j", 1, 1.0), ("j", 2, 2.0), ("l", 1, 3.0), ("l", 2, 4.0)]

    def test_apply_rejects_past_events(self):
        e = Engine()
        e.schedule(5.0, lambda: None)
        e.run()
        s = ChurnSchedule([ChurnEvent(1.0, 1, "join")])
        with pytest.raises(ValueError):
            s.apply(e, lambda a: None, lambda a: None)

    def test_rejected_apply_schedules_nothing(self):
        """Validation is all-or-nothing: a schedule with one past event
        must not leave its earlier (valid) events on the engine."""
        e = Engine()
        e.schedule(5.0, lambda: None)
        e.run()
        log = []
        s = ChurnSchedule([
            ChurnEvent(6.0, 1, "join"),   # valid at t=5
            ChurnEvent(7.0, 2, "join"),   # valid at t=5
            ChurnEvent(1.0, 3, "join"),   # in the past -> whole apply fails
        ])
        with pytest.raises(ValueError):
            s.apply(e, join=lambda a: log.append(a), leave=lambda a: log.append(a))
        e.run()
        assert log == []
        assert e.now == 5.0  # nothing was scheduled, so time never advanced
