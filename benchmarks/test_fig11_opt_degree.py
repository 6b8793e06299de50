"""Fig. 11 — node-degree distribution of unbounded-degree OPT.

Paper shape: to reach 100% hit ratio OPT must drop the degree bound, and
then over two thirds of nodes exceed degree 15 at full scale (0.3% exceed
200, max 708) — correlation-only overlays cannot bound their degree on a
real-world workload.  At bench scale the fractions shrink with the
population, so the assertions check heavy-tailedness and the paper's
qualitative point: a substantial share of nodes is forced past the degree
any bounded configuration would allow.
"""

import numpy as np

from benchmarks.conftest import emit
from repro.experiments import run_sweep, scaled
from repro.experiments.scenarios import fig11_spec


def test_fig11_opt_degree_distribution(once):
    rows = once(run_sweep, fig11_spec(
        n_users=scaled(6000),
        sample_size=scaled(600),
        seed=1,
    ))
    emit("Fig. 11 — OPT (unbounded) node-degree distribution", rows)

    degrees = [r["degree"] for r in rows for _ in range(r["frequency"])]
    degrees = np.asarray(degrees)
    n = len(degrees)

    frac_over_15 = (degrees > 15).sum() / n
    emit(
        "Fig. 11 — summary",
        [
            {"statistic": "nodes", "value": n},
            {"statistic": "mean_degree", "value": round(float(degrees.mean()), 2)},
            {"statistic": "max_degree", "value": int(degrees.max())},
            {"statistic": "fraction_degree_gt_15", "value": round(float(frac_over_15), 3)},
        ],
    )

    # A large share of nodes needs more links than any bounded setting.
    assert frac_over_15 > 0.2
    # Heavy tail: the max is several times the mean.
    assert degrees.max() > 3 * degrees.mean()
