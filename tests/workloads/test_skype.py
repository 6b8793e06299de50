"""Tests for the synthetic Skype churn trace."""

import pytest

from repro.workloads.skype import SkypeTrace


def online(trace, t):
    """Nodes online at hour *t*."""
    return sum(1 for _, s, e in trace.sessions if s <= t < e)


@pytest.fixture(scope="module")
def trace():
    return SkypeTrace(n_nodes=150, horizon=400, flash_crowd_at=250, seed=2)


class TestGeneration:
    def test_deterministic(self):
        a = SkypeTrace(n_nodes=50, horizon=100, seed=1)
        b = SkypeTrace(n_nodes=50, horizon=100, seed=1)
        assert a.sessions == b.sessions

    def test_sessions_well_formed(self, trace):
        for node, start, end in trace.sessions:
            assert 0 <= start < end <= trace.horizon
            assert 0 <= node < trace.n_nodes

    def test_sessions_per_node_disjoint(self, trace):
        per_node = {}
        for node, start, end in trace.sessions:
            per_node.setdefault(node, []).append((start, end))
        for sessions in per_node.values():
            sessions.sort()
            for (s1, e1), (s2, e2) in zip(sessions, sessions[1:]):
                assert e1 <= s2

    def test_validation(self):
        with pytest.raises(ValueError):
            SkypeTrace(n_nodes=0)
        with pytest.raises(ValueError):
            SkypeTrace(n_nodes=10, flash_crowd_fraction=1.5)


class TestPopulationDynamics:
    def test_initial_population(self, trace):
        # Half the non-crowd pool starts online.
        pop0 = online(trace, 0.0)
        non_crowd = trace.n_nodes * (1 - trace.flash_crowd_fraction)
        assert pop0 == pytest.approx(non_crowd * 0.5, rel=0.35)

    def test_flash_crowd_spike(self, trace):
        before = online(trace, trace.flash_crowd_at - 5)
        after = online(trace, trace.flash_crowd_at + 2)
        assert after > before * 1.5

    def test_crowd_nodes_absent_before(self, trace):
        crowd_start = trace.n_nodes - int(trace.n_nodes * trace.flash_crowd_fraction)
        for node, start, end in trace.sessions:
            if node >= crowd_start:
                assert start >= trace.flash_crowd_at

    def test_no_flash_crowd_mode(self):
        t = SkypeTrace(n_nodes=60, horizon=200, flash_crowd_at=None, seed=1)
        series = [online(t, h) for h in range(0, 201, 20)]
        assert max(series) < 60  # no synchronized spike to full pool


class TestScheduleExport:
    def test_schedule_event_count(self, trace):
        sched = trace.schedule()
        assert len(sched) == 2 * len(trace.sessions)

    def test_time_scaling(self, trace):
        sched = trace.schedule(time_scale=2.0)
        assert sched.events[-1].time == pytest.approx(2.0 * max(e for _, _, e in trace.sessions))
