"""The experiment harness: one scenario per paper figure.

- :mod:`repro.experiments.runner` — build/converge/measure primitives
  shared by all scenarios.
- :mod:`repro.experiments.spec` — the declarative layer: picklable
  :class:`Trial` points, ordered :class:`Sweep`\\ s with a reduce step,
  and the :class:`Scenario` registry entry binding a sweep builder to
  its bench sizes.
- :mod:`repro.experiments.executor` — serial and multi-process trial
  executors plus the resumable on-disk :class:`ResultCache`.
- :mod:`repro.experiments.scenarios` — ``fig4`` … ``fig12`` plus the
  ablations from DESIGN.md; each returns plain row dicts with the same
  axes as the paper figure.
- :mod:`repro.experiments.reporting` — text tables and CSV emission.

Scale: every scenario takes explicit sizes with defaults chosen so the
whole suite finishes on one machine; the CLI's ``--scale 4`` multiplies
node counts toward the paper's 10,000.
"""

from repro.experiments.executor import (
    ParallelExecutor,
    ResultCache,
    SerialExecutor,
    run_sweep,
)
from repro.experiments.runner import (
    build_opt,
    build_rvr,
    build_vitis,
    converge,
    measure,
)
from repro.experiments.reporting import format_table, rows_to_csv
from repro.experiments.spec import (
    Scenario,
    Sweep,
    Trial,
    trial_key,
)

__all__ = [
    "ParallelExecutor",
    "ResultCache",
    "Scenario",
    "SerialExecutor",
    "Sweep",
    "Trial",
    "build_opt",
    "build_rvr",
    "build_vitis",
    "converge",
    "format_table",
    "measure",
    "rows_to_csv",
    "run_sweep",
    "trial_key",
]

