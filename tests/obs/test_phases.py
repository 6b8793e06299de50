"""Tests for the nested phase timer."""

import pytest

from repro.obs import PhaseTimer


def make_timer(times):
    """A PhaseTimer on a deterministic fake clock (pops from ``times``)."""
    it = iter(times)
    return PhaseTimer(clock=lambda: next(it))


class TestPhaseTimer:
    def test_single_phase(self):
        pt = make_timer([0.0, 2.5])
        with pt.phase("build"):
            pass
        assert pt._totals.get("build", 0.0) == 2.5
        assert pt._calls.get("build", 0) == 1

    def test_nesting_joins_paths(self):
        # Enter fig4 at 0, converge at 1; exit converge at 4, fig4 at 10.
        pt = make_timer([0.0, 1.0, 4.0, 10.0])
        with pt.phase("fig4"):
            with pt.phase("converge"):
                pass
        assert pt._totals.get("fig4/converge", 0.0) == 3.0
        assert pt._totals.get("fig4", 0.0) == 10.0  # inclusive of children
        assert pt._calls.get("fig4", 0) == 1

    def test_reentry_accumulates(self):
        pt = make_timer([0.0, 1.0, 5.0, 7.0])
        for _ in range(2):
            with pt.phase("measure"):
                pass
        assert pt._calls.get("measure", 0) == 2
        assert pt._totals.get("measure", 0.0) == 3.0  # 1.0 + 2.0

    def test_same_name_different_parents_are_distinct(self):
        pt = make_timer([0.0, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0])
        with pt.phase("a"):
            with pt.phase("x"):
                pass
        with pt.phase("b"):
            with pt.phase("x"):
                pass
        assert pt._calls.get("a/x", 0) == 1
        assert pt._calls.get("b/x", 0) == 1
        assert pt._calls.get("x", 0) == 0

    def test_slash_in_name_rejected(self):
        with pytest.raises(ValueError):
            PhaseTimer().phase("a/b")

    def test_on_exit_hook(self):
        seen = []
        pt = make_timer([0.0, 1.0, 3.0, 6.0])
        pt.on_exit = lambda path, dur: seen.append((path, dur))
        with pt.phase("outer"):
            with pt.phase("inner"):
                pass
        # Children exit before parents, with full paths and durations.
        assert seen == [("outer/inner", 2.0), ("outer", 6.0)]

    def test_to_rows_pct_only_for_top_level(self):
        pt = make_timer([0.0, 1.0, 3.0, 4.0])
        with pt.phase("run"):
            with pt.phase("sub"):
                pass
        rows = {r["phase"]: r for r in pt.to_rows()}
        assert rows["run"]["pct_of_run"] == 100.0
        assert rows["run/sub"]["pct_of_run"] is None
        assert rows["run/sub"]["total_s"] == 2.0

    def test_to_dict(self):
        pt = make_timer([0.0, 2.0])
        with pt.phase("p"):
            pass
        d = pt.to_dict()
        assert set(d) == {"p"}
        assert d["p"]["calls"] == 1
        assert d["p"]["total_s"] == 2.0
        # A single 2s call: both duration quantiles sit on that sample.
        assert d["p"]["p50_s"] == 2.0
        assert d["p"]["p99_s"] == 2.0

    def test_to_dict_quantiles_bracket_mixed_durations(self):
        pt = make_timer([0.0, 0.001, 1.0, 9.0])
        with pt.phase("p"):
            pass
        with pt.phase("p"):
            pass
        d = pt.to_dict()
        assert d["p"]["calls"] == 2
        assert d["p"]["p50_s"] <= d["p"]["p99_s"]
        assert d["p"]["p99_s"] <= 8.0  # clamped to the observed max


class TestMerge:
    """Snapshot/merge — the worker-to-parent fold ``ParallelExecutor``
    relies on (see ``test_executor.py`` for the end-to-end check)."""

    def test_merge_sums_totals_and_calls(self):
        parent = make_timer([0.0, 1.0])
        with parent.phase("converge"):
            pass
        parent.merge({"totals": {"converge": 2.5}, "calls": {"converge": 3}})
        assert parent._totals.get("converge", 0.0) == 3.5
        assert parent._calls.get("converge", 0) == 4

    def test_prefix_nests_worker_paths(self):
        # A worker's 'converge' lands under the parent's 'fig4', exactly
        # where a serial run would have recorded it.
        parent = PhaseTimer()
        parent.merge(
            {"totals": {"converge": 2.0}, "calls": {"converge": 1}},
            prefix="fig4",
        )
        assert parent._totals.get("fig4/converge", 0.0) == 2.0
        assert parent._calls.get("fig4/converge", 0) == 1
        assert parent._totals.get("converge", 0.0) == 0.0

    def test_prefix_preserves_nested_worker_subpaths(self):
        # Workers nest internally too: 'converge/probe' must become
        # 'fig4/converge/probe', not flatten.
        parent = PhaseTimer()
        parent.merge(
            {
                "totals": {"converge": 5.0, "converge/probe": 2.0},
                "calls": {"converge": 1, "converge/probe": 4},
            },
            prefix="fig4",
        )
        assert parent._totals.get("fig4/converge", 0.0) == 5.0
        assert parent._totals.get("fig4/converge/probe", 0.0) == 2.0
        assert parent._calls.get("fig4/converge/probe", 0) == 4

    def test_worker_snapshots_fold_to_serial_totals(self):
        # Run two 'trials' serially on one timer, then the same trials on
        # two separate 'worker' timers merged into a fresh parent: paths,
        # totals and call counts must match exactly.
        def run_trial(pt, t0):
            # build: t0..t0+1; converge: t0+1..t0+4; trial: t0..t0+6
            times = [t0, t0, t0 + 1.0, t0 + 1.0, t0 + 4.0, t0 + 6.0]
            it = iter(times)
            pt._clock = lambda: next(it)
            with pt.phase("trial"):
                with pt.phase("build"):
                    pass
                with pt.phase("converge"):
                    pass

        serial = PhaseTimer()
        for t0 in (0.0, 100.0):
            run_trial(serial, t0)

        workers = []
        for t0 in (0.0, 100.0):
            w = PhaseTimer()
            run_trial(w, t0)
            workers.append(w.snapshot())

        parent = PhaseTimer()
        for snap in workers:
            parent.merge(snap)

        assert parent.to_dict() == serial.to_dict()
        assert parent._calls.get("trial", 0) == 2
        assert parent._totals.get("trial/converge", 0.0) == serial._totals.get("trial/converge", 0.0)

    def test_merge_does_not_fire_on_exit(self):
        # Merged entries were already reported in the worker; re-firing
        # would double-count trace events.
        seen = []
        parent = PhaseTimer()
        parent.on_exit = lambda path, dur: seen.append((path, dur))
        parent.merge({"totals": {"p": 1.0}, "calls": {"p": 1}})
        assert seen == []
        assert parent._totals.get("p", 0.0) == 1.0

    def test_missing_calls_default_to_one(self):
        parent = PhaseTimer()
        parent.merge({"totals": {"p": 1.0}, "calls": {}})
        assert parent._calls.get("p", 0) == 1

    def test_merge_into_open_phase_via_telemetry(self):
        # Telemetry.merge_snapshot prefixes with the parent's *currently
        # open* path — a worker snapshot folded while 'fig4' is open nests
        # under 'fig4/'.
        from repro.obs import Telemetry

        telemetry = Telemetry()
        with telemetry.phase("fig4"):
            telemetry.merge_snapshot(
                {
                    "metrics": {"counters": {}, "gauges": {}, "histograms": {}},
                    "phases": {
                        "totals": {"converge": 2.0},
                        "calls": {"converge": 1},
                    },
                }
            )
        assert telemetry.phases._totals.get("fig4/converge", 0.0) == 2.0
        assert telemetry.phases._calls.get("fig4/converge", 0) == 1
