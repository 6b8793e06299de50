"""Tests for the trial executors, the result cache, and the determinism
contract (serial == parallel == cached, byte for byte)."""

import json

import pytest

from repro import obs
from repro.experiments import scenarios
from repro.experiments.executor import (
    ParallelExecutor,
    ResultCache,
    SerialExecutor,
    run_sweep,
)
from repro.experiments.spec import Sweep, trial_key

# Tiny sizes: these exercise the plumbing, not the physics.
FIG4_KW = dict(n_nodes=40, n_topics=100, friend_counts=(0, 6),
               patterns=("high",), events=40)
FAULT_KW = dict(n_nodes=40, n_topics=100, loss_rates=(0.0, 0.1),
                partition_cycles=(3,), heal_cycles=4, events=30)


class RecordingExecutor(SerialExecutor):
    """Counts how many trials actually execute (for resume tests)."""

    def __init__(self):
        self.ran = []

    def run_trials(self, trials):
        self.ran.extend(t.key for t in trials)
        return super().run_trials(trials)


class TestExecutorEquivalence:
    def test_fig4_serial_vs_parallel_identical(self):
        ser = run_sweep(scenarios.fig4_spec(seed=1, **FIG4_KW))
        par = run_sweep(
            scenarios.fig4_spec(seed=1, **FIG4_KW), executor=ParallelExecutor(2)
        )
        assert json.dumps(ser, sort_keys=True) == json.dumps(par, sort_keys=True)

    def test_fault_sweep_serial_vs_parallel_identical(self):
        ser = run_sweep(scenarios.fault_sweep_spec(seed=3, **FAULT_KW))
        par = run_sweep(
            scenarios.fault_sweep_spec(seed=3, **FAULT_KW), executor=ParallelExecutor(2)
        )
        assert json.dumps(ser, sort_keys=True) == json.dumps(par, sort_keys=True)

    def test_parallel_jobs_validation(self):
        with pytest.raises(ValueError):
            ParallelExecutor(0)


class TestResultCache:
    def test_write_through_then_pure_cache_read(self, tmp_path):
        cache = ResultCache(tmp_path)
        sweep = scenarios.fig4_spec(seed=1, **FIG4_KW)
        first = run_sweep(sweep, cache=cache)

        rec = RecordingExecutor()
        again = scenarios.fig4_spec(seed=1, **FIG4_KW)
        second = run_sweep(again, executor=rec, cache=cache, resume=True)
        assert rec.ran == []  # identical spec: nothing re-runs
        assert json.dumps(first, sort_keys=True) == json.dumps(second, sort_keys=True)

    def test_interrupted_sweep_resumes_missing_trials_only(self, tmp_path):
        cache = ResultCache(tmp_path)
        sweep = scenarios.fig4_spec(seed=1, **FIG4_KW)
        full = run_sweep(sweep, cache=cache)

        # Simulate a mid-way kill: drop two of the cached trial results.
        sweep2 = scenarios.fig4_spec(seed=1, **FIG4_KW)
        killed = [sweep2.trials[0], sweep2.trials[-1]]
        for t in killed:
            cache.path(sweep2.name, trial_key(sweep2, t)).unlink()

        rec = RecordingExecutor()
        resumed = run_sweep(sweep2, executor=rec, cache=cache, resume=True)
        assert rec.ran == [t.key for t in killed]
        assert json.dumps(full, sort_keys=True) == json.dumps(resumed, sort_keys=True)

    def test_seed_change_misses_cache(self, tmp_path):
        cache = ResultCache(tmp_path)
        run_sweep(scenarios.fig4_spec(seed=1, **FIG4_KW), cache=cache)
        rec = RecordingExecutor()
        other = scenarios.fig4_spec(seed=2, **FIG4_KW)
        run_sweep(other, executor=rec, cache=cache, resume=True)
        assert len(rec.ran) == len(other.trials)

    def test_corrupt_entry_treated_as_miss(self, tmp_path):
        cache = ResultCache(tmp_path)
        sweep = scenarios.fig4_spec(seed=1, **FIG4_KW)
        full = run_sweep(sweep, cache=cache)

        sweep2 = scenarios.fig4_spec(seed=1, **FIG4_KW)
        victim = cache.path(sweep2.name, trial_key(sweep2, sweep2.trials[0]))
        victim.write_text("{not json")

        rec = RecordingExecutor()
        resumed = run_sweep(sweep2, executor=rec, cache=cache, resume=True)
        assert len(rec.ran) == 1
        assert json.dumps(full, sort_keys=True) == json.dumps(resumed, sort_keys=True)

    def test_resume_without_cache_rejected(self):
        with pytest.raises(ValueError):
            run_sweep(Sweep("t"), resume=True)

    def test_orphaned_tmp_from_crashed_writer_is_cleaned(self, tmp_path):
        cache = ResultCache(tmp_path)
        sweep = scenarios.fig4_spec(seed=1, **FIG4_KW)
        full = run_sweep(sweep, cache=cache)

        # A writer killed between mkstemp and os.replace strands a .tmp
        # next to the entries, and the entry it was replacing is gone.
        sweep2 = scenarios.fig4_spec(seed=1, **FIG4_KW)
        victim = cache.path(sweep2.name, trial_key(sweep2, sweep2.trials[0]))
        victim.unlink()
        orphan = victim.parent / "deadbeef0123.tmp"
        orphan.write_text('{"key": "partial')
        old = orphan.stat().st_mtime - 7200
        import os
        os.utime(orphan, (old, old))

        rec = RecordingExecutor()
        resumed = run_sweep(sweep2, executor=rec, cache=cache, resume=True)
        assert rec.ran == [sweep2.trials[0].key]
        assert not orphan.exists()
        assert not list(victim.parent.glob("*.tmp"))
        assert json.dumps(full, sort_keys=True) == json.dumps(resumed, sort_keys=True)

    def test_fresh_tmp_of_concurrent_writer_is_spared(self, tmp_path):
        cache = ResultCache(tmp_path)
        sweep_dir = tmp_path / "s"
        sweep_dir.mkdir()
        inflight = sweep_dir / "inflight.tmp"
        inflight.write_text("{}")
        assert cache.cleanup_orphans("s") == 0  # younger than max_age
        assert inflight.exists()
        assert cache.cleanup_orphans("s", max_age=0.0) == 1
        assert not inflight.exists()

    def test_cache_files_carry_spec(self, tmp_path):
        cache = ResultCache(tmp_path)
        sweep = scenarios.fig4_spec(seed=1, **FIG4_KW)
        run_sweep(sweep, cache=cache)
        entries = list((tmp_path / "fig4").glob("*.json"))
        assert len(entries) == len(sweep.trials)
        entry = json.loads(entries[0].read_text())
        assert set(entry) == {"key", "spec", "result", "meta"}
        assert entry["spec"]["fn"].startswith("repro.experiments.scenarios.")

    def test_cache_files_carry_provenance_meta(self, tmp_path):
        from repro import __version__
        from repro.provenance import code_fingerprint

        cache = ResultCache(tmp_path)
        sweep = scenarios.fig4_spec(seed=1, **FIG4_KW)
        run_sweep(sweep, cache=cache)
        entry = json.loads(
            next((tmp_path / "fig4").glob("*.json")).read_text()
        )
        assert entry["meta"] == {
            "repro_version": __version__,
            "code_hash": code_fingerprint(),
        }


class TestStaleCache:
    """Cached trials written by a different code state: reused with a
    warning by default, recomputed under ``strict=True``."""

    def _age_entries(self, cache, sweep):
        """Rewrite every cached entry as if an older build produced it."""
        n = 0
        for t in sweep.trials:
            path = cache.path(sweep.name, trial_key(sweep, t))
            entry = json.loads(path.read_text())
            entry["meta"] = {"repro_version": "0.0.0", "code_hash": "f" * 12}
            path.write_text(json.dumps(entry))
            n += 1
        return n

    def test_stale_entries_reused_with_warning(self, tmp_path, caplog):
        cache = ResultCache(tmp_path)
        sweep = scenarios.fig4_spec(seed=1, **FIG4_KW)
        full = run_sweep(sweep, cache=cache)
        self._age_entries(cache, sweep)

        rec = RecordingExecutor()
        with caplog.at_level("WARNING", logger="repro.experiments.executor"):
            again = run_sweep(scenarios.fig4_spec(seed=1, **FIG4_KW),
                              executor=rec, cache=cache, resume=True)
        assert rec.ran == []  # still served from cache
        assert json.dumps(full, sort_keys=True) == json.dumps(again, sort_keys=True)
        assert any("predate the current code" in r.message for r in caplog.records)

    def test_fresh_entries_do_not_warn(self, tmp_path, caplog):
        cache = ResultCache(tmp_path)
        run_sweep(scenarios.fig4_spec(seed=1, **FIG4_KW), cache=cache)
        with caplog.at_level("WARNING", logger="repro.experiments.executor"):
            run_sweep(scenarios.fig4_spec(seed=1, **FIG4_KW),
                      executor=RecordingExecutor(), cache=cache, resume=True)
        assert not any("predate" in r.message for r in caplog.records)

    def test_strict_cache_recomputes_stale_entries(self, tmp_path):
        cache = ResultCache(tmp_path)
        sweep = scenarios.fig4_spec(seed=1, **FIG4_KW)
        full = run_sweep(sweep, cache=cache)
        n = self._age_entries(cache, sweep)

        strict = ResultCache(tmp_path, strict=True)
        rec = RecordingExecutor()
        again = run_sweep(scenarios.fig4_spec(seed=1, **FIG4_KW),
                          executor=rec, cache=strict, resume=True)
        assert len(rec.ran) == n  # every stale entry re-ran
        assert json.dumps(full, sort_keys=True) == json.dumps(again, sort_keys=True)

    def test_strict_recompute_refreshes_meta(self, tmp_path):
        # After a strict re-run the entries carry current provenance, so
        # the next strict resume is a pure cache read again.
        cache = ResultCache(tmp_path)
        sweep = scenarios.fig4_spec(seed=1, **FIG4_KW)
        run_sweep(sweep, cache=cache)
        self._age_entries(cache, sweep)

        strict = ResultCache(tmp_path, strict=True)
        run_sweep(scenarios.fig4_spec(seed=1, **FIG4_KW),
                  cache=strict, resume=True)
        rec = RecordingExecutor()
        run_sweep(scenarios.fig4_spec(seed=1, **FIG4_KW),
                  executor=rec, cache=strict, resume=True)
        assert rec.ran == []

    def test_pre_upgrade_entries_count_as_stale(self, tmp_path):
        # Entries written before meta existed have no provenance at all.
        cache = ResultCache(tmp_path)
        sweep = scenarios.fig4_spec(seed=1, **FIG4_KW)
        run_sweep(sweep, cache=cache)
        for t in sweep.trials:
            path = cache.path(sweep.name, trial_key(sweep, t))
            entry = json.loads(path.read_text())
            del entry["meta"]
            path.write_text(json.dumps(entry))

        _, stale = cache.load_checked(
            sweep.name, trial_key(sweep, sweep.trials[0])
        )
        assert stale

        strict = ResultCache(tmp_path, strict=True)
        rec = RecordingExecutor()
        run_sweep(scenarios.fig4_spec(seed=1, **FIG4_KW),
                  executor=rec, cache=strict, resume=True)
        assert len(rec.ran) == len(sweep.trials)


class TestTelemetryMerge:
    def test_registry_merge_preserves_counter_totals(self):
        parent = obs.Telemetry()
        worker = obs.Telemetry()
        parent.metrics.counter("a").inc(2)
        worker.metrics.counter("a").inc(3)
        worker.metrics.counter("b", system="vitis").inc(1)
        worker.metrics.histogram("h").observe(5.0)
        worker.metrics.gauge("g").set(7.0)

        parent.merge_snapshot(worker.snapshot())
        assert parent.metrics.counter("a").value == 5
        assert parent.metrics.counter("b", system="vitis").value == 1
        assert parent.metrics.histogram("h").count == 1
        assert parent.metrics.gauge("g").value == 7.0

    def test_phase_merge_nests_under_open_phase(self):
        parent = obs.Telemetry()
        worker = obs.Telemetry()
        with worker.phase("converge"):
            pass
        with parent.phases.phase("fig4"):
            parent.merge_snapshot(worker.snapshot())
        assert parent.phases._calls.get("fig4/converge", 0) == 1

    def test_parallel_run_counters_match_serial(self):
        ser_tel = obs.Telemetry()
        with obs.scope(ser_tel):
            run_sweep(scenarios.fig4_spec(seed=1, **FIG4_KW))

        par_tel = obs.Telemetry()
        with obs.scope(par_tel):
            run_sweep(
                scenarios.fig4_spec(seed=1, **FIG4_KW),
                executor=ParallelExecutor(2),
            )

        ser_counters = ser_tel.metrics.to_dict()["counters"]
        par_counters = par_tel.metrics.to_dict()["counters"]
        assert ser_counters == par_counters
        assert ser_counters["engine_cycles_total"] > 0

    def test_parallel_run_has_phase_tree(self):
        tel = obs.Telemetry()
        with obs.scope(tel), tel.phase("fig4"):
            run_sweep(
                scenarios.fig4_spec(seed=1, **FIG4_KW),
                executor=ParallelExecutor(2),
            )
        assert tel.phases._calls.get("fig4/converge", 0) > 0
        assert tel.phases._calls.get("fig4/measure", 0) > 0

    def test_parallel_phase_tree_matches_serial(self):
        # Worker snapshots folded into the parent must reproduce the
        # serial phase tree: same paths, same call counts (wall times
        # differ — workers time concurrently).
        def phase_tree(executor=None):
            tel = obs.Telemetry()
            with obs.scope(tel), tel.phase("fig4"):
                run_sweep(scenarios.fig4_spec(seed=1, **FIG4_KW), executor=executor)
            return {path: d["calls"] for path, d in tel.phases.to_dict().items()}

        ser = phase_tree()
        par = phase_tree(executor=ParallelExecutor(2))
        assert ser == par
        assert any(path.startswith("fig4/") for path in ser)

    def test_trials_total_counters(self, tmp_path):
        tel = obs.Telemetry()
        cache = ResultCache(tmp_path)
        with obs.scope(tel):
            run_sweep(scenarios.fig4_spec(seed=1, **FIG4_KW), cache=cache)
            run_sweep(scenarios.fig4_spec(seed=1, **FIG4_KW),
                      cache=cache, resume=True)
        n = len(scenarios.fig4_spec(seed=1, **FIG4_KW).trials)
        assert tel.metrics.counter("trials_total", sweep="fig4").value == 2 * n
        assert tel.metrics.counter("trials_cached_total", sweep="fig4").value == n


class TestTraceMerge:
    """Parallel workers write private trace files; the parent folds them
    into its own trace in trial order, tagged with a ``trial`` field."""

    def run_traced(self, tmp_path, name, executor=None):
        path = str(tmp_path / f"{name}.jsonl")
        tel = obs.Telemetry(trace=path)
        with obs.scope(tel):
            run_sweep(scenarios.fig4_spec(seed=1, **FIG4_KW), executor=executor)
        tel.close()
        return obs.read_trace(path)

    def test_merged_trace_reconstructs_like_serial(self, tmp_path):
        from repro.obs.audit import audit_trace

        ser = self.run_traced(tmp_path, "ser")
        par = self.run_traced(tmp_path, "par", executor=ParallelExecutor(2))
        ser_audit = audit_trace(ser)
        par_audit = audit_trace(par)
        assert par_audit.ok and ser_audit.ok
        assert par_audit.n_events == ser_audit.n_events
        assert par_audit.delivered_total == ser_audit.delivered_total
        assert par_audit.expected_total == ser_audit.expected_total

    def test_worker_records_tagged_with_trial_key(self, tmp_path):
        par = self.run_traced(tmp_path, "par", executor=ParallelExecutor(2))
        span_trials = {e.get("trial") for e in par if e["ev"] == "span"}
        assert None not in span_trials
        assert len(span_trials) > 1  # one tag per trial
        for tag in span_trials:
            assert isinstance(tag, str) and tag

    def test_merge_is_deterministic(self, tmp_path):
        def spans_only(events):
            return [
                {k: v for k, v in e.items() if k != "wall"}
                for e in events
                if e["ev"] in ("span", "miss")
            ]

        first = self.run_traced(tmp_path, "a", executor=ParallelExecutor(2))
        second = self.run_traced(tmp_path, "b", executor=ParallelExecutor(2))
        assert spans_only(first) == spans_only(second)

    def test_untraced_parallel_run_writes_no_trace_files(self, tmp_path):
        # metrics-only telemetry: the merge path must not even create
        # worker trace files (tracing is off).
        tel = obs.Telemetry()
        with obs.scope(tel):
            run_sweep(
                scenarios.fig4_spec(seed=1, **FIG4_KW),
                executor=ParallelExecutor(2),
            )
        assert tel.trace is None
