"""Figs. 8 & 9 — the (synthetic) Twitter trace: degree distributions and
summary statistics.

Paper shape: both in- and out-degree follow a power law with fitted
exponent ≈1.65; the summary table (Fig. 9) reports users, relations and
degree statistics.  The benchmark regenerates both from the synthetic
trace and checks the fits.
"""

import numpy as np

from benchmarks.conftest import emit
from repro.experiments import run_sweep, scaled
from repro.experiments.scenarios import fig8_spec, fig9_spec


def test_fig8_twitter_degree_distribution(once):
    n_users = scaled(20000)
    rows = once(run_sweep, fig8_spec(n_users=n_users, seed=1))
    # Print log-binned series (the paper's log-log plot) rather than the
    # raw histogram, which has thousands of rows.
    from repro.analysis.distributions import log_binned_histogram

    for kind in ("in", "out"):
        samples = [r["degree"] for r in rows if r["kind"] == kind
                   for _ in range(r["frequency"])]
        centers, density = log_binned_histogram(samples, n_bins=12)
        emit(
            f"Fig. 8 — {kind}-degree distribution (log-binned)",
            [{"degree": round(c, 1), "density": d} for c, d in zip(centers, density)],
        )

    in_total = sum(r["frequency"] for r in rows if r["kind"] == "in")
    assert in_total == n_users
    # Heavy tail: maximum degree far above the mean.
    degrees = [r["degree"] for r in rows if r["kind"] == "in" for _ in range(r["frequency"])]
    assert max(degrees) > 10 * np.mean(degrees)


def test_fig9_twitter_summary(once):
    rows = once(run_sweep, fig9_spec(n_users=scaled(20000), seed=1))
    summary = {r["statistic"]: r["value"] for r in rows}
    emit(
        "Fig. 9 — Twitter trace statistics",
        [{"statistic": k, "value": round(v, 3)} for k, v in summary.items()],
    )
    # The paper's fit: α ≈ 1.65 for both distributions.
    assert abs(summary["alpha_in"] - 1.65) < 0.25
    assert abs(summary["alpha_out"] - 1.65) < 0.25
    assert summary["relations"] > summary["users"]
