"""Tests for node profiles."""

from repro.core.profile import NodeProfile


class TestSubscriptions:
    def test_initial_set(self):
        p = NodeProfile(1, 100, {3, 4})
        assert p.subscriptions == frozenset({3, 4})
        assert len(p) == 2

    def test_subscribe_new(self):
        p = NodeProfile(1, 100)
        assert p.subscribe(7) is True
        assert p.subscribes_to(7)

    def test_subscribe_duplicate(self):
        p = NodeProfile(1, 100, {7})
        assert p.subscribe(7) is False

    def test_unsubscribe(self):
        p = NodeProfile(1, 100, {7})
        assert p.unsubscribe(7) is True
        assert not p.subscribes_to(7)
        assert p.unsubscribe(7) is False


class TestVersioning:
    def test_version_bumps_on_change(self):
        p = NodeProfile(1, 100)
        v0 = p.version
        p.subscribe(1)
        assert p.version == v0 + 1
        p.unsubscribe(1)
        assert p.version == v0 + 2

    def test_no_bump_on_noop(self):
        p = NodeProfile(1, 100, {1})
        v0 = p.version
        p.subscribe(1)
        p.unsubscribe(99)
        assert p.version == v0

    def test_snapshot_is_immutable(self):
        p = NodeProfile(1, 100, {1})
        snap = p.subscriptions
        p.subscribe(2)
        assert snap == frozenset({1})
