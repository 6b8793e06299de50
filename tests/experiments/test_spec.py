"""Tests for the declarative experiment spec layer."""

import pytest

from repro.experiments.executor import run_sweep
from repro.experiments.scenarios import SCENARIOS
from repro.experiments.spec import (
    Scenario,
    Sweep,
    flat_reduce,
    rows_reduce,
    trial_key,
)


def _one_row(x, seed):
    return {"x": x, "seed": seed}


def _many_rows(n, seed):
    return [{"i": i} for i in range(n)]


class TestSweep:
    def test_trials_keep_insertion_order(self):
        sw = Sweep("t")
        for x in (5, 1, 9):
            sw.trial(_one_row, key=(x,), seed=x, x=x)
        assert [t.kwargs["x"] for t in sw.trials] == [5, 1, 9]

    def test_seed_is_required(self):
        with pytest.raises(TypeError):
            Sweep("t").trial(_one_row, key=(1,), x=1)

    def test_pinned_seed_wins(self):
        sw = Sweep("t")
        t = sw.trial(_one_row, key=("p",), seed=77, x=1)
        assert t.seed == 77

    def test_default_reduce_is_rows(self):
        sw = Sweep("t")
        assert sw.reduce is rows_reduce

    def test_run_reduces_in_trial_order(self):
        sw = Sweep("t")
        for x in (3, 1, 2):
            sw.trial(_one_row, key=(x,), seed=x, x=x)
        rows = run_sweep(sw)
        assert [r["x"] for r in rows] == [3, 1, 2]

    def test_flat_reduce(self):
        sw = Sweep("t", reduce=flat_reduce)
        sw.trial(_many_rows, key=("a",), seed=0, n=2)
        sw.trial(_many_rows, key=("b",), seed=0, n=1)
        assert run_sweep(sw) == [{"i": 0}, {"i": 1}, {"i": 0}]


class TestTrialKey:
    def _trial(self, **kw):
        sw = Sweep("t")
        return sw, sw.trial(_one_row, key=("k",), seed=1, **kw)

    def test_stable(self):
        sw1, t1 = self._trial(x=3)
        sw2, t2 = self._trial(x=3)
        assert trial_key(sw1, t1) == trial_key(sw2, t2)

    def test_kwargs_change_key(self):
        sw1, t1 = self._trial(x=3)
        sw2, t2 = self._trial(x=4)
        assert trial_key(sw1, t1) != trial_key(sw2, t2)

    def test_sweep_name_namespaces(self):
        sw, t = self._trial(x=3)
        assert trial_key("other", t) != trial_key(sw, t)

    def test_seed_changes_key(self):
        sw = Sweep("t")
        t1 = sw.trial(_one_row, key=("a",), seed=1, x=3)
        t2 = sw.trial(_one_row, key=("b",), seed=2, x=3)
        assert trial_key(sw, t1) != trial_key(sw, t2)

    def test_unpicklable_kwargs_rejected(self):
        sw = Sweep("t")
        t = sw.trial(_one_row, key=("bad",), seed=1, x=object())
        with pytest.raises(TypeError):
            trial_key(sw, t)


class TestScenarioRegistry:
    def test_all_eighteen_commands_present(self):
        assert set(SCENARIOS) == {
            "fig4", "fig5", "fig6", "fig7", "fig8", "fig9", "fig10",
            "fig11", "fig12", "ablation_depth", "ablation_utility",
            "ablation_sampler", "ablation_sw", "ablation_proximity",
            "management_cost", "fault_sweep", "overload_sweep",
            "chaos_sweep",
        }

    def test_every_scenario_builds_a_sweep(self):
        for name, scenario in SCENARIOS.items():
            sweep = scenario.sweep(seed=0, scale=0.1)
            assert isinstance(sweep, Sweep), name
            assert len(sweep.trials) > 0, name

    def test_trials_are_declarative(self):
        """Every trial of every scenario is picklable and hashable."""
        import pickle

        for name, scenario in SCENARIOS.items():
            sweep = scenario.sweep(seed=0, scale=0.1)
            for t in sweep.trials:
                pickle.dumps((t.fn, dict(t.kwargs), t.seed))
                assert trial_key(sweep, t)

    def test_scaled_kwargs_floor(self):
        s = Scenario("x", lambda seed=0, **kw: Sweep("x"), {"n_nodes": 300})
        assert s.scaled_kwargs(0.0001) == {"n_nodes": 2}

    def test_adjust_hook_applies(self):
        fs = SCENARIOS["fault_sweep"]
        kwargs = fs.scaled_kwargs(0.2)
        assert kwargs["n_topics"] % 50 == 0
        assert kwargs["n_topics"] >= 100

    def test_fig12_bench_pool(self):
        assert SCENARIOS["fig12"].scaled_kwargs(1.0) == {"pool": 250}
