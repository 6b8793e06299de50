"""Benchmark harness configuration.

Each benchmark regenerates one figure/table of the paper at a
machine-friendly scale, prints the same rows/series the paper plots (so
``pytest benchmarks/ --benchmark-only -s`` doubles as the reproduction
log), asserts the qualitative shape, and reports wall-clock through
pytest-benchmark.

Scale: set ``REPRO_SCALE`` (default 1.0) to multiply population sizes;
the paper's 10,000-node setting corresponds to roughly ``REPRO_SCALE=33``
on the synthetic figures.

These are reproduction logs, not the performance instrument: throughput,
memory and the per-layer shares are measured by ``benchmarks/perf/``
(see ``docs/performance.md``).
"""

from __future__ import annotations

import pytest

from repro.experiments.reporting import format_table


def emit(title: str, rows) -> None:
    """Print a figure's rows under a recognisable banner."""
    print()
    print("=" * 72)
    print(format_table(rows, title=title))


@pytest.fixture
def once(benchmark):
    """Run the scenario exactly once under pytest-benchmark timing.

    Experiment scenarios are deterministic and expensive; statistical
    repetition would multiply minutes for no insight.
    """

    def run(fn, *args, **kwargs):
        return benchmark.pedantic(
            fn, args=args, kwargs=kwargs, rounds=1, iterations=1
        )

    return run
