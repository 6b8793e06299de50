"""Smoke tests for the per-figure scenarios at miniature sizes.

The full-size rows are the committed ``results/*.csv``, whose shapes
``tests/test_figure_shapes.py`` asserts; here each scenario runs its full
grid at the smallest meaningful population and the row *shapes* and
gross orderings are asserted.
"""

import pytest

from repro.experiments import run_sweep
from repro.experiments import scenarios as sc

TINY = dict(n_nodes=70, n_topics=200, seed=3)


class TestFig4:
    @pytest.fixture(scope="class")
    def rows(self):
        return run_sweep(sc.fig4_spec(**TINY))

    def test_row_shape(self, rows):
        assert {r["system"] for r in rows} == {"vitis", "rvr"}
        for r in rows:
            assert {"hit_ratio", "traffic_overhead_pct", "mean_delay_hops"} <= set(r)

    def test_friends_reduce_overhead(self, rows):
        v = {r["n_friends"]: r["traffic_overhead_pct"]
             for r in rows if r["system"] == "vitis" and r["pattern"] == "high"}
        assert v[12] < v[0]

    def test_hit_ratio_full(self, rows):
        assert all(r["hit_ratio"] == pytest.approx(1.0) for r in rows)


class TestFig5:
    def test_fractions_sum_to_one_per_series(self):
        rows = run_sweep(sc.fig5_spec(n_nodes=70, n_topics=200, seed=3))
        from collections import defaultdict

        sums = defaultdict(float)
        for r in rows:
            sums[(r["system"], r["pattern"])] += r["fraction_of_nodes"]
        for key, total in sums.items():
            assert total == pytest.approx(1.0, abs=1e-6), key


class TestFig6:
    def test_bigger_tables_reduce_overhead(self):
        rows = run_sweep(sc.fig6_spec(**TINY))
        v = {r["rt_size"]: r["traffic_overhead_pct"]
             for r in rows if r["system"] == "vitis" and r["pattern"] == "high"}
        assert sorted(v) == list(sc.RT_SIZES)
        assert v[35] <= v[15]


class TestFig7:
    def test_skew_helps_random_pattern(self):
        rows = run_sweep(sc.fig7_spec(**TINY))
        v = {r["alpha"]: r["traffic_overhead_pct"]
             for r in rows if r["system"] == "vitis" and r["pattern"] == "random"}
        assert sorted(v) == list(sc.ALPHAS)
        assert v[3.0] <= v[0.3] * 1.25  # skew must not hurt; usually helps


class TestFig8and9:
    def test_degree_rows(self):
        rows = run_sweep(sc.fig8_spec(n_users=400, seed=3))
        kinds = {r["kind"] for r in rows}
        assert kinds == {"in", "out"}
        assert sum(r["frequency"] for r in rows if r["kind"] == "in") == 400

    def test_summary_stats(self):
        rows = run_sweep(sc.fig9_spec(n_users=400, seed=3))
        s = {r["statistic"]: r["value"] for r in rows}
        assert s["users"] == 400
        assert s["relations"] > 0
        assert 1.0 < s["alpha_in"] < 3.0


class TestFig10:
    @pytest.fixture(scope="class")
    def rows(self):
        return run_sweep(sc.fig10_spec(n_users=700, sample_size=150, seed=3))

    def test_three_systems(self, rows):
        assert {r["system"] for r in rows} == {"vitis", "rvr", "opt"}

    def test_vitis_and_rvr_full_hit(self, rows):
        for r in rows:
            if r["system"] in ("vitis", "rvr"):
                assert r["hit_ratio"] == pytest.approx(1.0, abs=0.02)

    def test_opt_zero_overhead(self, rows):
        for r in rows:
            if r["system"] == "opt":
                assert r["traffic_overhead_pct"] == 0.0

    def test_vitis_beats_rvr_overhead(self, rows):
        by = {(r["system"], r["rt_size"]): r["traffic_overhead_pct"] for r in rows}
        for rt in (15, 25, 35):
            assert by[("vitis", rt)] < by[("rvr", rt)]


class TestFig11:
    def test_degree_distribution_rows(self):
        rows = run_sweep(sc.fig11_spec(n_users=700, sample_size=150, seed=3))
        assert sum(r["frequency"] for r in rows) > 0
        assert all(r["degree"] >= 0 for r in rows)


class TestFig12:
    def test_churn_series(self):
        rows = run_sweep(sc.fig12_spec(pool=60, seed=3))
        times = [20.0 * k for k in range(1, int(sc.HORIZON / 20) + 1)]
        assert [(r["system"], r["time"]) for r in rows] == [
            (s, t) for s in ("vitis", "rvr") for t in times]
        for r in rows:
            assert r["live_nodes"] >= 0
            assert 0 <= r["hit_ratio"] <= 1


class TestAblations:
    def test_gateway_depth_rows(self):
        rows = run_sweep(sc.ablation_depth_spec(**TINY))
        assert {r["gateway_depth"] for r in rows} == {1, 2, 5, 8, 12}
        d = {r["gateway_depth"]: r for r in rows}
        # Tighter depth → at least as many gateways per topic.
        assert d[1]["mean_gateways_per_topic"] >= d[12]["mean_gateways_per_topic"]

    def test_utility_ablation_rows(self):
        rows = run_sweep(sc.ablation_utility_spec(**TINY))
        assert {r["rate_weighted"] for r in rows} == {True, False}

    def test_sampler_ablation_close_metrics(self):
        rows = run_sweep(sc.ablation_sampler_spec(**TINY))
        by = {r["sampler"]: r for r in rows}
        assert set(by) == {"newscast", "cyclon"}
        for r in rows:
            assert r["hit_ratio"] == pytest.approx(1.0, abs=0.02)


class TestPatternHelper:
    def test_unknown_pattern(self):
        with pytest.raises(ValueError):
            sc.make_subscriptions("bogus", 10, 100, 0)
