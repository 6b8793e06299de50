"""Ablation benches for the design choices DESIGN.md calls out.

1. Gateway depth ``d``: the paper fixes d=5; the sweep shows the
   trade-off it encodes — small d multiplies gateways (more relay paths,
   more overhead), large d lengthens intra-cluster detours.
2. Rate-weighted utility (Eq. 1) vs plain Jaccard under skewed rates:
   weighting clusters hot-topic subscribers harder and lowers the
   rate-weighted average overhead.
3. Peer-sampling implementation (Newscast vs Cyclon): the paper claims
   the choice is immaterial; metrics should be close.
"""

from benchmarks.conftest import emit
from repro.experiments import run_sweep, scaled
from repro.experiments.scenarios import (
    ablation_depth_spec,
    ablation_sampler_spec,
    ablation_utility_spec,
)

SIZE = dict(n_nodes=300, n_topics=1000, events=200, seed=1)


def sized():
    out = dict(SIZE)
    out["n_nodes"] = scaled(out["n_nodes"])
    out["n_topics"] = scaled(out["n_topics"])
    return out


def test_ablation_gateway_depth(once):
    rows = once(run_sweep, ablation_depth_spec(depths=(1, 2, 5, 8), **sized()))
    emit("Ablation — gateway depth threshold d", rows)
    by = {r["gateway_depth"]: r for r in rows}
    # Tighter depth → more gateways → more relay paths.
    assert by[1]["mean_gateways_per_topic"] > by[5]["mean_gateways_per_topic"]
    assert by[1]["relay_paths"] >= by[5]["relay_paths"]
    # Delivery never suffers: gateways are per-cluster redundancy.
    assert all(r["hit_ratio"] >= 0.999 for r in rows)


def test_ablation_utility_weighting(once):
    rows = once(run_sweep, ablation_utility_spec(**sized()))
    emit("Ablation — rate-weighted utility vs plain Jaccard (α=2)", rows)
    by = {r["rate_weighted"]: r for r in rows}
    # Rate weighting should not hurt, and typically helps, the
    # (rate-weighted) average overhead under skewed publication.
    assert (
        by[True]["traffic_overhead_pct"]
        <= by[False]["traffic_overhead_pct"] * 1.1
    )
    assert all(r["hit_ratio"] >= 0.999 for r in rows)


def test_ablation_peer_sampler(once):
    rows = once(run_sweep, ablation_sampler_spec(**sized()))
    emit("Ablation — Newscast vs Cyclon peer sampling", rows)
    by = {r["sampler"]: r for r in rows}
    # The paper's claim: any sampling service works.
    assert by["newscast"]["hit_ratio"] >= 0.999
    assert by["cyclon"]["hit_ratio"] >= 0.999
    a = by["newscast"]["traffic_overhead_pct"]
    b = by["cyclon"]["traffic_overhead_pct"]
    assert abs(a - b) < 0.5 * max(a, b) + 2.0
