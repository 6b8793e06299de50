"""Benchmark harness configuration.

Each benchmark runs one sweep that is not a paper figure (faults,
overload, chaos, the Magnet ordering) at a machine-friendly size, prints
its rows (so ``pytest benchmarks/ -s`` doubles as the run's log) and
asserts the ordering the architecture predicts.  The paper's figures
run once, as the CLI's default configuration that regenerates
``results/*.csv``; ``tests/test_figure_shapes.py`` asserts their shapes
on those rows.

These are reproduction logs, not the performance instrument: throughput,
memory and the per-layer shares are measured by ``benchmarks/perf/``
(see ``docs/performance.md``).
"""

from __future__ import annotations

from repro.experiments.reporting import format_table


def emit(title: str, rows) -> None:
    """Print a sweep's rows under a recognisable banner."""
    print()
    print("=" * 72)
    print(format_table(rows, title=title))
