"""Declarative experiment specs: trials, sweeps and the scenario registry.

Every paper figure is an embarrassingly parallel sweep: a set of
independent (builder, config, workload, seed) points, each doing
build → converge → measure, plus a *reduce* step that turns the per-point
results into the row dicts the figure plots.  This module is the spec
layer of that architecture:

- :class:`Trial` — one picklable sweep point: a module-level callable,
  its keyword arguments (plain JSON-able values only), and its seed.
  Because trials are self-contained they can run in worker processes
  (:mod:`repro.experiments.executor`) and be cached on disk keyed by
  :func:`trial_key`.
- :class:`Sweep` — an ordered list of trials plus the ``reduce`` function
  mapping the trial results (in trial order) to row dicts.  Row order is
  a function of trial order alone, never of completion order, so serial
  and parallel executors produce identical row lists.
- :class:`Scenario` — one CLI command: a sweep builder plus the names
  of its population parameters that ``--scale`` multiplies; their bench
  values are the builder's own defaults, and the builder's signature is
  the CLI's record of which sweep-axis flags the command takes.

Seed discipline: every trial is given its seed explicitly, so a trial
computes the same thing whether it runs inline or in a worker.
"""

from __future__ import annotations

import hashlib
import inspect
import json
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Mapping, Optional, Sequence, Tuple

__all__ = [
    "Scenario",
    "Sweep",
    "Trial",
    "flat_reduce",
    "rows_reduce",
    "trial_key",
]

#: Cache-format version; bump when trial result encoding changes so stale
#: cache entries never masquerade as current ones.
SPEC_VERSION = 1


def _canonical(obj):
    """``obj`` reduced to JSON-stable primitives for hashing.

    Tuples become lists, dict keys are stringified and sorted at dump
    time; numpy scalars collapse to their Python value.  Anything else is
    rejected — trial kwargs must stay plainly serialisable, that is what
    makes them shippable to workers and hashable for the cache.
    """
    if obj is None or isinstance(obj, (bool, int, float, str)):
        return obj
    if hasattr(obj, "item") and not isinstance(obj, (list, tuple, dict)):
        return obj.item()  # numpy scalar
    if isinstance(obj, (list, tuple)):
        return [_canonical(v) for v in obj]
    if isinstance(obj, dict):
        return {str(k): _canonical(v) for k, v in obj.items()}
    raise TypeError(
        f"trial kwargs must be JSON-able primitives, got {type(obj).__name__}: {obj!r}"
    )


@dataclass(frozen=True)
class Trial:
    """One independent point of a sweep.

    ``fn`` must be a module-level callable (picklable by reference) taking
    ``fn(seed=..., **kwargs)``; ``kwargs`` must be JSON-able primitives.
    ``key`` is the human-readable identity of the point within its sweep
    (used for labels and error messages; the cache key hashes the full
    spec instead).
    """

    fn: Callable[..., Any]
    kwargs: Mapping[str, Any]
    seed: int
    key: Tuple = ()

    def run(self) -> Any:
        """Execute the trial in the current process."""
        return self.fn(seed=self.seed, **self.kwargs)

    def spec_dict(self) -> Dict:
        """The complete, canonical description of this computation."""
        return {
            "v": SPEC_VERSION,
            "fn": f"{self.fn.__module__}.{self.fn.__qualname__}",
            "kwargs": _canonical(dict(self.kwargs)),
            "seed": int(self.seed),
        }


def rows_reduce(results: Sequence[Any]) -> List[Dict]:
    """The identity reduce for sweeps whose trials each return one row."""
    return [dict(r) for r in results]


def flat_reduce(results: Sequence[Any]) -> List[Dict]:
    """Reduce for sweeps whose trials each return a *list* of rows."""
    return [dict(r) for rs in results for r in rs]


class Sweep:
    """An ordered set of trials plus the reduce step producing figure rows.

    Parameters
    ----------
    name:
        Sweep identity; namespaces the cache directory and telemetry
        labels.
    reduce:
        ``reduce(results) -> list[dict]`` over trial results *in trial
        order*.  Defaults to :func:`rows_reduce`.
    """

    def __init__(
        self,
        name: str,
        reduce: Callable[[Sequence[Any]], List[Dict]] = rows_reduce,
    ) -> None:
        self.name = name
        self.reduce = reduce
        self.trials: List[Trial] = []

    def trial(self, fn: Callable[..., Any], key: Tuple = (), *, seed: int, **kwargs) -> Trial:
        """Append one trial with its ``seed``."""
        t = Trial(fn=fn, kwargs=kwargs, seed=int(seed), key=tuple(key))
        self.trials.append(t)
        return t

    def __len__(self) -> int:
        return len(self.trials)


def trial_key(sweep: "Sweep | str", trial: Trial) -> str:
    """Stable content hash identifying one trial of one sweep.

    Two trials share a key iff they describe the same computation: same
    sweep name, same fully-qualified trial function, same canonicalised
    kwargs, same seed.  The hex digest names the cache file.
    """
    name = sweep if isinstance(sweep, str) else sweep.name
    spec = dict(trial.spec_dict(), sweep=name)
    material = json.dumps(spec, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(material.encode("utf-8")).hexdigest()


@dataclass(frozen=True)
class Scenario:
    """One CLI command: a sweep builder plus its bench-size knobs.

    ``scale_knobs`` names the builder's population parameters that the
    CLI multiplies by ``--scale``, starting from the builder's defaults.
    ``adjust`` post-processes the scaled kwargs for scenarios with
    structural constraints (e.g. ``fault_sweep`` needs its topic count
    divisible by the subscription-bucket size).
    """

    name: str
    spec: Callable[..., Sweep]
    scale_knobs: Tuple[str, ...]
    adjust: Optional[Callable[[Dict[str, int]], Dict[str, int]]] = None

    def scaled_kwargs(self, scale: float = 1.0) -> Dict[str, int]:
        """The population kwargs at ``scale`` times the builder's defaults."""
        params = inspect.signature(self.spec).parameters
        kwargs = {k: max(2, int(params[k].default * scale)) for k in self.scale_knobs}
        if self.adjust is not None:
            kwargs = self.adjust(kwargs)
        return kwargs

    def sweep(self, seed: int = 0, scale: float = 1.0, **overrides) -> Sweep:
        """Build the sweep at ``scale``, with explicit kwarg overrides."""
        kwargs = self.scaled_kwargs(scale)
        kwargs.update(overrides)
        return self.spec(seed=seed, **kwargs)
