"""Integration tests under churn (the Fig. 12 machinery, small scale)."""

import pytest

from repro.baselines.rvr import RvrProtocol
from repro.core.config import VitisConfig
from repro.core.protocol import VitisProtocol
from repro.experiments.runner import measure
from repro.sim.churn import ChurnSchedule
from repro.workloads.skype import SkypeTrace
from repro.workloads.subscriptions import bucket_subscriptions

POOL, TOPICS = 60, 60


def subs():
    return bucket_subscriptions(
        POOL, TOPICS, n_buckets=6, buckets_per_node=2, topics_per_bucket=5, seed=4
    )


def vitis_under_churn():
    return VitisProtocol(
        subs(), VitisConfig(rt_size=8), seed=4, auto_start=False,
        election_every=1, relay_every=1,
    )


class TestChurnLifecycle:
    def test_population_tracks_schedule(self):
        p = vitis_under_churn()
        trace = SkypeTrace(n_nodes=POOL, horizon=50, flash_crowd_at=None, seed=4)
        trace.schedule().apply(p.engine, p.join, p.leave)
        p.run_cycles(30)
        expected = sum(1 for _, s, e in trace.sessions if s <= 30.0 < e)
        assert abs(p.live_count() - expected) <= 2

    def test_flash_crowd_joins_all_at_once(self):
        p = vitis_under_churn()
        sched = ChurnSchedule.flash_crowd(list(range(POOL)), at=5.0)
        sched.apply(p.engine, p.join, p.leave)
        p.run_cycles(4)
        assert p.live_count() == 0
        p.run_cycles(2)
        assert p.live_count() == POOL

    def test_delivery_recovers_after_churn(self):
        p = vitis_under_churn()
        # Everybody joins at t=0, a third crash at t=12, measure at 30.
        events = [(a, 0.0, 1000.0) for a in range(POOL)]
        ChurnSchedule.from_sessions(events).apply(p.engine, p.join, p.leave)
        p.run_cycles(25)
        for a in range(0, POOL, 3):
            p.leave(a)
        p.run_cycles(20)
        col = measure(p, 60, seed=5, min_join_age=10.0)
        assert col.hit_ratio() > 0.95

    def test_hit_ratio_measured_after_grace_period(self):
        p = vitis_under_churn()
        ChurnSchedule.from_sessions([(a, 0.0, 1000.0) for a in range(POOL // 2)]).apply(
            p.engine, p.join, p.leave
        )
        p.run_cycles(30)
        # A latecomer joins now; with the 10 s rule it must not appear in
        # the denominator of an immediate measurement.
        late = POOL - 1
        p.join(late)
        col = measure(p, 40, seed=6, min_join_age=10.0)
        for rec in col.records:
            assert late not in rec.subscribers


class TestVitisVsRvrUnderFlashCrowd:
    @pytest.mark.slow
    def test_vitis_degrades_less(self):
        """The Fig. 12(a) claim, qualitatively: right after a flash crowd
        Vitis's hit ratio stays above RVR's."""
        results = {}
        for name, cls, kw in (
            ("vitis", VitisProtocol, dict(election_every=1, relay_every=1)),
            ("rvr", RvrProtocol, dict(relay_every=1)),
        ):
            p = cls(subs(), VitisConfig(rt_size=8), seed=4, auto_start=False, **kw)
            base = ChurnSchedule.from_sessions(
                [(a, 0.0, 1000.0) for a in range(POOL // 2)]
            )
            crowd = ChurnSchedule.flash_crowd(list(range(POOL // 2, POOL)), at=30.0)
            base.merged(crowd).apply(p.engine, p.join, p.leave)
            p.run_cycles(33)  # 3 cycles after the crowd lands
            col = measure(p, 80, seed=7, min_join_age=2.0)
            results[name] = col.hit_ratio()
        assert results["vitis"] >= results["rvr"] - 0.02
