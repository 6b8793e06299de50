"""Trial executors and the resumable on-disk result cache.

The execution layer of the experiment architecture
(:mod:`repro.experiments.spec` is the spec layer): given a
:class:`~repro.experiments.spec.Sweep`, run its trials — serially or
across worker processes — and hand the results, in trial order, to the
sweep's reduce step.

Determinism contract
--------------------
Row order and row content are independent of executor choice: trials are
self-contained, results are gathered in trial order (never completion
order), and every result — fresh or cached — passes through the same
JSON normalisation.  ``SerialExecutor`` and ``ParallelExecutor(jobs=N)``
therefore produce byte-identical row lists for the same sweep and seed.

Telemetry
---------
``SerialExecutor`` runs trials under the ambient :func:`repro.obs.current`
telemetry — phases nest naturally.  ``ParallelExecutor`` gives each worker
a fresh in-process :class:`~repro.obs.Telemetry`, captures it as a
snapshot, and merges the snapshots into the parent telemetry on join, in
trial order.  Counter totals and phase call counts are therefore
identical to a serial run; phase *wall times* sum the workers' concurrent
time and may exceed the parent's elapsed time.  When the parent is
*tracing*, each trial additionally writes its trace events to a private
temp JSONL file, which the parent folds into its own trace on join —
again in trial order, each record tagged with a ``trial`` field (worker
trace-id sequences restart at 0, so the tag is what keeps the merged
``(trial, trace_id)`` keys unique; see
:func:`repro.obs.spans.trace_key`).  The merged trace is deterministic
for a given sweep and seed, up to the parent-side records interleaved
around the trial blocks.

Caching
-------
:class:`ResultCache` stores each completed trial's result as JSON under
``<root>/<sweep>/<trial-hash>.json``, keyed by
:func:`~repro.experiments.spec.trial_key` (sweep name, trial function,
canonical kwargs, seed).  Cached trials are loaded instead of re-run,
so an interrupted sweep restarts where it stopped and re-running an
identical spec is a pure cache read.  Writes are atomic (temp file +
rename), so a killed run never leaves a torn entry.

Every entry additionally records the repro version and the package code
fingerprint (:func:`repro.provenance.code_fingerprint`) that produced
it.  The trial hash only covers the *spec* — same kwargs, same seed —
so after a code change an old entry still matches its key while the
result it holds may no longer be what the current code computes.  Such
a stale entry reads as a miss: the trial re-runs and its entry is
overwritten, so a cache hit is indistinguishable from a recompute.
"""

from __future__ import annotations

import contextlib
import json
import logging
import os
import tempfile
import time
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro import obs
from repro.experiments.spec import Sweep, Trial, trial_key

__all__ = [
    "ParallelExecutor",
    "ResultCache",
    "SerialExecutor",
    "run_sweep",
]

log = logging.getLogger(__name__)

_MISSING = object()


def _json_default(obj):
    if hasattr(obj, "item"):
        return obj.item()  # numpy scalar
    raise TypeError(f"trial results must be JSON-able, got {type(obj).__name__}")


def normalize_result(result: Any) -> Any:
    """A JSON round-trip of ``result``.

    Applied to *every* trial result, fresh or cached, so a run served
    from the cache is byte-identical to the run that populated it
    (tuples become lists, numpy scalars become Python numbers, dict key
    order is preserved).
    """
    return json.loads(json.dumps(result, default=_json_default))


class SerialExecutor:
    """Runs trials inline, in trial order, under the ambient telemetry."""

    jobs = 1

    def run_trials(self, trials: Sequence[Trial]) -> List[Any]:
        return [t.run() for t in trials]


def _worker_run(
    fn, kwargs, seed: int, instrument: bool, trace_path: Optional[str] = None
) -> Tuple[Any, Optional[Dict]]:
    """Top-level worker entry (must be picklable by reference).

    Runs one trial under a fresh telemetry scope — never the telemetry
    object a forked child inherited, whose trace file descriptor is
    shared with the parent — and returns the result plus a snapshot of
    the metrics and phase timings when instrumentation is on.  When the
    parent is tracing, ``trace_path`` names a private JSONL file this
    trial's trace events go to; the parent merges it on join.
    """
    telemetry = obs.Telemetry(trace=trace_path) if instrument else obs.NULL
    try:
        with obs.scope(telemetry):
            result = fn(seed=seed, **kwargs)
    finally:
        telemetry.close()
    return result, (telemetry.snapshot() if instrument else None)


class ParallelExecutor:
    """Runs trials in ``jobs`` worker processes.

    Results are gathered in trial order and worker telemetry snapshots
    are merged into the ambient telemetry in that same order, so the
    output — rows, counter totals, phase tree — matches a serial run.
    """

    def __init__(self, jobs: int) -> None:
        if jobs < 1:
            raise ValueError(f"jobs must be >= 1, got {jobs}")
        self.jobs = jobs

    def run_trials(self, trials: Sequence[Trial]) -> List[Any]:
        if not trials:
            return []
        parent = obs.current()
        instrument = parent.enabled
        tracing = instrument and parent.tracing
        results: List[Any] = []
        with tempfile.TemporaryDirectory(prefix="repro-traces-") if tracing \
                else contextlib.nullcontext() as trace_dir:
            with ProcessPoolExecutor(max_workers=self.jobs) as pool:
                futures = [
                    pool.submit(
                        _worker_run, t.fn, dict(t.kwargs), t.seed, instrument,
                        self._trace_path(trace_dir, i) if tracing else None,
                    )
                    for i, t in enumerate(trials)
                ]
                for i, (trial, future) in enumerate(zip(trials, futures)):
                    try:
                        result, snap = future.result()
                    except Exception:
                        log.error("trial %s/%s failed", trial.fn.__qualname__, trial.key)
                        raise
                    if snap is not None:
                        parent.merge_snapshot(snap)
                    if tracing:
                        self._merge_trace(
                            parent, self._trace_path(trace_dir, i), trial
                        )
                    results.append(result)
        return results

    @staticmethod
    def _trace_path(trace_dir: str, index: int) -> str:
        return os.path.join(trace_dir, f"trial-{index:06d}.jsonl")

    @staticmethod
    def _merge_trace(parent, path: str, trial: Trial) -> None:
        """Fold one worker's trace file into the parent's trace writer.

        Records keep their original timestamps and are appended in trial
        order (never completion order), tagged with a ``trial`` field —
        worker trace ids restart at 0 per process, so the tag is what
        keeps `(trial, trace_id)` unique in the merged file (see
        :func:`repro.obs.spans.trace_key`).  The merged output is
        therefore deterministic for a given sweep and seed.  A worker
        that died mid-write leaves a truncated final line, which
        :func:`repro.obs.read_trace` tolerates (prefix kept, warning).
        """
        if not os.path.exists(path):
            return  # trial emitted no trace events
        tag = "/".join(str(part) for part in trial.key) or str(trial.seed)
        for record in obs.read_trace(path):
            record["trial"] = tag
            parent.trace.write_record(record)


class ResultCache:
    """Completed-trial results on disk, one JSON file per trial hash.

    An entry written by a different repro version or code state reads as
    a miss, so its trial re-runs.
    """

    def __init__(self, root) -> None:
        self.root = Path(root)

    def path(self, sweep_name: str, key: str) -> Path:
        return self.root / sweep_name / f"{key}.json"

    def _meta(self) -> Dict:
        from repro import __version__
        from repro.provenance import code_fingerprint

        return {"repro_version": __version__, "code_hash": code_fingerprint()}

    def load(self, sweep_name: str, key: str) -> Any:
        """The cached result, or ``_MISSING``.

        Absence, corruption and a stale entry (recorded repro
        version/code fingerprint differs from the running package, or no
        provenance recorded at all) all read as ``_MISSING``.
        """
        path = self.path(sweep_name, key)
        try:
            with open(path, "r", encoding="utf-8") as fh:
                entry = json.load(fh)
        except (OSError, json.JSONDecodeError):
            return _MISSING
        if entry.get("key") != key or entry.get("meta") != self._meta():
            return _MISSING
        return entry["result"]

    def cleanup_orphans(self, sweep_name: str, max_age: float = 3600.0) -> int:
        """Remove ``.tmp`` files a crashed writer left mid-atomic-write.

        :meth:`store` writes through ``mkstemp`` + ``os.replace``; a
        process killed between the two strands a ``*.tmp`` file next to
        the cache entries, which accretes forever (and reads as clutter
        in the cache directory) unless swept.  ``max_age`` guards
        concurrent writers: only temp files older than it are removed,
        so a parallel worker's in-flight write is never yanked away.
        Returns the number of files removed.
        """
        removed = 0
        sweep_dir = self.root / sweep_name
        if not sweep_dir.is_dir():
            return removed
        cutoff = time.time() - max_age
        for tmp in sweep_dir.glob("*.tmp"):
            try:
                if tmp.stat().st_mtime <= cutoff:
                    tmp.unlink()
                    removed += 1
            except OSError:
                continue  # already gone, or a racing writer renamed it
        if removed:
            log.info("cache %s: removed %d orphaned temp file(s)",
                     sweep_dir, removed)
        return removed

    def store(self, sweep_name: str, key: str, spec: Dict, result: Any) -> None:
        """Atomically persist one trial result (temp file + rename)."""
        path = self.path(sweep_name, key)
        path.parent.mkdir(parents=True, exist_ok=True)
        payload = {"key": key, "spec": spec, "result": result,
                   "meta": self._meta()}
        fd, tmp = tempfile.mkstemp(dir=path.parent, suffix=".tmp")
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as fh:
                json.dump(payload, fh, default=_json_default)
            os.replace(tmp, path)
        except BaseException:
            if os.path.exists(tmp):
                os.unlink(tmp)
            raise


def run_sweep(
    sweep: Sweep,
    executor=None,
    cache: Optional[ResultCache] = None,
) -> List[Dict]:
    """Execute a sweep's trials and reduce the results to figure rows.

    Parameters
    ----------
    executor:
        ``SerialExecutor`` (default) or ``ParallelExecutor(jobs=N)``.
    cache:
        When set, trials with a current cached result are loaded instead
        of re-run, and every result computed is written through to it.
    """
    executor = executor if executor is not None else SerialExecutor()
    telemetry = obs.current()

    keys = [trial_key(sweep, t) for t in sweep.trials]
    results: List[Any] = (
        [cache.load(sweep.name, key) for key in keys]
        if cache is not None else [_MISSING] * len(keys)
    )
    cached = sum(r is not _MISSING for r in results)

    pending = [i for i, r in enumerate(results) if r is _MISSING]
    if pending and cache is not None:
        # Sweep leftovers from writers that crashed mid-atomic-write
        # before this run's workers start adding their own temp files.
        cache.cleanup_orphans(sweep.name)
    if pending:
        fresh = executor.run_trials([sweep.trials[i] for i in pending])
        for i, result in zip(pending, fresh):
            result = normalize_result(result)
            results[i] = result
            if cache is not None:
                cache.store(sweep.name, keys[i], sweep.trials[i].spec_dict(), result)

    if telemetry.enabled:
        telemetry.metrics.counter("trials_total", sweep=sweep.name).inc(len(results))
        telemetry.metrics.counter("trials_cached_total", sweep=sweep.name).inc(cached)
    if cached:
        log.info("sweep %s: %d/%d trials served from cache",
                 sweep.name, cached, len(results))
    return sweep.reduce(results)
