"""Fig. 7 — skewed publication rates (power-law exponent sweep).

Paper shape: as α grows, hot topics dominate both the utility function
and the event mix; the random-subscription curve converges toward the
high-correlation one, while RVR is unaffected by rates.
"""

from benchmarks.conftest import emit
from repro.experiments import run_sweep, scaled
from repro.experiments.scenarios import fig7_spec

ALPHAS = (0.3, 1.0, 3.0)


def test_fig7_publication_rate(once):
    rows = once(run_sweep, fig7_spec(
        n_nodes=scaled(300),
        n_topics=scaled(1000),
        alphas=ALPHAS,
        events=200,
        seed=1,
    ))
    emit("Fig. 7 — overhead & delay vs publication-rate exponent α", rows)

    def overhead(pattern, alpha):
        return next(
            r["traffic_overhead_pct"]
            for r in rows
            if r["system"] == "vitis" and r["pattern"] == pattern and r["alpha"] == alpha
        )

    # At α=0.3 (≈uniform), random subscriptions pay much more than high
    # correlation; at α=3 the gap closes substantially (paper's Fig. 7
    # "random approaches high correlation").
    gap_flat = overhead("random", 0.3) - overhead("high", 0.3)
    gap_skew = overhead("random", 3.0) - overhead("high", 3.0)
    assert gap_skew < gap_flat
    # Skew must help the random pattern outright.
    assert overhead("random", 3.0) < overhead("random", 0.3)
    assert all(r["hit_ratio"] >= 0.999 for r in rows)
