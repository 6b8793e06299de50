"""The overload_sweep scenario: row contract, determinism, cache/resume,
and the graceful-degradation shape at test scale.
"""

import json

import numpy as np
import pytest

from repro.experiments import scenarios
from repro.experiments.executor import (
    ParallelExecutor,
    ResultCache,
    SerialExecutor,
    run_sweep,
)
from repro.experiments.overload import measure_under_load, overload_sweep_spec
from repro.experiments.runner import build_vitis
from repro.experiments.scenarios import make_subscriptions
from repro.workloads.publication import sample_topics

# Tiny sizes: these exercise the plumbing, not the physics.
OVERLOAD_KW = dict(n_nodes=40, n_topics=100, pub_rates=(4,), capacities=(0, 24))

EXTRA_KEYS = {
    "shed_fraction", "data_shed_fraction", "control_survival", "shed_total",
    "backpressure", "deferred", "hotspot_load", "hotspot_shed",
}


class TestMeasureUnderLoad:
    def test_matches_the_manual_loop_without_capacity(self):
        """With no capacity attached, measure_under_load is exactly the
        plain cycle+publish loop — same RNG stream, same records."""
        subs = make_subscriptions("high", 40, 100, seed=0)
        a = build_vitis(subs, seed=0)
        b = build_vitis(subs, seed=0)

        col = measure_under_load(a, events_per_cycle=4, cycles=3, seed=9)

        rng = np.random.default_rng(9)
        manual = []
        candidates = [t for t in b.topics() if b.subscribers(t)]
        for _ in range(3):
            b.run_cycles(1)
            for topic in sample_topics(b.rates, 4, rng, restrict=candidates):
                subs_t = sorted(b.subscribers(topic))
                if not subs_t:
                    continue
                pub = subs_t[int(rng.integers(len(subs_t)))]
                manual.append(b.publish(topic, pub))
        assert len(col.records) == len(manual)
        assert [r.delivered_hops for r in col.records] \
            == [r.delivered_hops for r in manual]
        assert col.summary() == _summarize(manual)


def _summarize(records):
    from repro.sim.metrics import MetricsCollector

    c = MetricsCollector()
    c.extend(records)
    return c.summary()


class TestSweepSpec:
    def test_unknown_policy_rejected(self):
        with pytest.raises(ValueError, match="policy"):
            overload_sweep_spec(policy="drop_everything")

    def test_trial_count_and_keys(self):
        sweep = overload_sweep_spec(pub_rates=(2, 4), capacities=(0, 8))
        assert [t.key for t in sweep.trials] == [
            (system, rate, cap)
            for system in ("vitis", "rvr") for rate in (2, 4) for cap in (0, 8)
        ]

    def test_registered_in_the_scenario_table(self):
        assert "overload_sweep" in scenarios.SCENARIOS
        sweep = scenarios.SCENARIOS["overload_sweep"].sweep(seed=0, scale=0.2)
        assert sweep.trials  # scaled sizes still build a sweep


class TestSweepRows:
    @pytest.fixture(scope="class")
    def rows(self):
        return run_sweep(scenarios.overload_sweep_spec(seed=2, **OVERLOAD_KW))

    def test_row_grid_and_keys(self, rows):
        assert len(rows) == 4  # 2 systems x 1 rate x 2 capacities
        for row in rows:
            assert EXTRA_KEYS <= set(row)
            assert {"system", "pub_rate", "capacity", "policy",
                    "hit_ratio"} <= set(row)
        # Rectangular rows: the CSV writer keys off the first row.
        assert all(set(r) == set(rows[0]) for r in rows)

    def test_capacity_off_rows_are_clean(self, rows):
        for row in rows:
            if row["capacity"] == 0:
                assert row["hit_ratio"] == 1.0
                assert row["shed_fraction"] == 0.0
                assert row["control_survival"] == 1.0
                assert row["shed_total"] == 0

    def test_bounded_rows_shed_data_before_control(self, rows):
        bounded = [r for r in rows if r["capacity"]]
        assert any(r["shed_total"] > 0 for r in bounded)
        for r in bounded:
            if r["shed_total"]:
                assert r["data_shed_fraction"] >= 1.0 - r["control_survival"]

    def test_hit_ratio_monotone_in_capacity(self, rows):
        for system in ("vitis", "rvr"):
            by_cap = {r["capacity"]: r["hit_ratio"]
                      for r in rows if r["system"] == system}
            # capacity 0 = unbounded: the top of the ladder.
            assert by_cap[0] >= by_cap[24]

    def test_serial_parallel_and_cache_identical(self, tmp_path, rows):
        par = run_sweep(
            scenarios.overload_sweep_spec(seed=2, **OVERLOAD_KW),
            executor=ParallelExecutor(2),
        )
        assert json.dumps(rows, sort_keys=True) == json.dumps(par, sort_keys=True)

        cache = ResultCache(tmp_path)
        sweep = overload_sweep_spec(seed=2, **OVERLOAD_KW)
        first = run_sweep(sweep, cache=cache)
        resumed = run_sweep(overload_sweep_spec(seed=2, **OVERLOAD_KW),
                            executor=SerialExecutor(), cache=cache)
        assert json.dumps(first, sort_keys=True) == json.dumps(rows, sort_keys=True)
        assert json.dumps(resumed, sort_keys=True) == json.dumps(rows, sort_keys=True)
