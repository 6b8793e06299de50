"""One scenario per paper figure (plus the DESIGN.md ablations).

Every scenario is expressed as a declarative sweep
(:mod:`repro.experiments.spec`): a ``<name>_spec`` builder emits the
independent (builder, config, workload, seed) trial points plus a reduce
step, and the executor layer (:mod:`repro.experiments.executor`) runs the
trials — inline or across worker processes — and reduces them to the
``list[dict]`` rows carrying the same axes the paper plots:
``run_sweep(fig4_spec(...))``, or ``SCENARIOS["fig4"].sweep(...)`` for
the CLI's scaled sizes.  Each builder's docstring records what the paper
reports for its figure.

Trial functions are module-level and take only JSON-able keyword
arguments, which makes every point picklable (for ``--jobs N`` worker
processes) and hashable (for the ``--cache-dir`` result cache).  Row
order depends only on trial order, never on completion order: serial and
parallel runs produce identical row lists.

Node/topic counts default to sizes that keep the whole suite tractable
on one machine; the paper runs 10,000 nodes (4,000 under churn) — pass
larger sizes, or use the CLI's ``--scale`` to approach that
(``REPRO_SCALE`` scales ``benchmarks/`` only).
The bench sizes the CLI scales live in :data:`SCENARIOS`, next to each
scenario.

Defaults shared with the paper: routing table 15 (1 sw link + 2 ring
links + 12 friends, section IV-B), gateway depth d=5, 50 subscriptions
per node over a 10:1 node:bucket topic universe, uniform publication
rates unless the scenario sweeps them.
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence

from repro.analysis.clusters import cluster_stats
from repro.analysis.distributions import frequency_histogram, gini
from repro.core.config import VitisConfig
from repro.experiments.runner import (
    build_opt,
    build_rvr,
    build_vitis,
    measure,
)
from repro.experiments.chaos import chaos_sweep_spec
from repro.experiments.overload import overload_sweep_spec
from repro.experiments.spec import Scenario, Sweep, flat_reduce, rows_reduce
from repro.sim.metrics import MetricsCollector
from repro.workloads.publication import power_law_rates
from repro.workloads.skype import SkypeTrace
from repro.workloads.subscriptions import (
    high_correlation_subscriptions,
    low_correlation_subscriptions,
    random_subscriptions,
)
from repro.workloads.twitter import TwitterTrace

__all__ = [
    "PATTERNS",
    "SCENARIOS",
    "make_subscriptions",
    "fig4_spec",
    "fig5_spec",
    "fig6_spec",
    "fig7_spec",
    "fig8_spec",
    "fig9_spec",
    "fig10_spec",
    "fig11_spec",
    "fig12_spec",
    "fault_sweep_spec",
    "overload_sweep_spec",
    "chaos_sweep_spec",
    "ablation_depth_spec",
    "ablation_utility_spec",
    "ablation_sampler_spec",
    "ablation_sw_spec",
    "ablation_proximity_spec",
    "management_cost_spec",
]

PATTERNS = ("high", "low", "random")

_PATTERN_FNS = {
    "high": high_correlation_subscriptions,
    "low": low_correlation_subscriptions,
    "random": random_subscriptions,
}


def make_subscriptions(pattern: str, n_nodes: int, n_topics: int, seed: int):
    """The three synthetic patterns of section IV-A by name."""
    try:
        fn = _PATTERN_FNS[pattern]
    except KeyError:
        raise ValueError(f"unknown pattern {pattern!r}; expected one of {PATTERNS}")
    if pattern == "random":
        return fn(n_nodes, n_topics, per_node=50, seed=seed)
    return fn(n_nodes, n_topics, seed=seed)


def _metrics_row(collector: MetricsCollector, **params) -> Dict:
    row = dict(params)
    row.update(collector.summary())
    return row


# ----------------------------------------------------------------------
# Fig. 4 — friends vs sw-neighbors (section IV-B)
# ----------------------------------------------------------------------
def _fig4_vitis_trial(pattern, n_nodes, n_topics, rt_size, n_friends, events, seed):
    subs = make_subscriptions(pattern, n_nodes, n_topics, seed)
    cfg = VitisConfig(rt_size=rt_size).with_friends(n_friends)
    vitis = build_vitis(subs, cfg, seed=seed)
    col = measure(vitis, events, seed=seed + 1)
    return _metrics_row(col, system="vitis", pattern=pattern, n_friends=n_friends)


def _fig4_rvr_trial(n_nodes, n_topics, rt_size, events, seed):
    # RVR has no friend knob and behaves alike across patterns: one line.
    subs = make_subscriptions("random", n_nodes, n_topics, seed)
    rvr = build_rvr(subs, VitisConfig(rt_size=rt_size), seed=seed)
    col = measure(rvr, events, seed=seed + 1)
    return _metrics_row(col, system="rvr", pattern="any")


def fig4_spec(
    n_nodes: int = 300,
    n_topics: int = 1000,
    rt_size: int = 15,
    friend_counts: Sequence[int] = (0, 3, 6, 9, 12),
    patterns: Sequence[str] = PATTERNS,
    events: int = 250,
    seed: int = 0,
) -> Sweep:
    """Traffic overhead and delay as friend links replace sw links.

    Paper: Vitis overhead drops steeply with more friends (88% reduction
    on high correlation); RVR is a flat reference line; hit ratio is 100%
    everywhere.
    """
    sweep = Sweep("fig4")
    for pattern in patterns:
        for f in friend_counts:
            sweep.trial(
                _fig4_vitis_trial, key=("vitis", pattern, f), seed=seed,
                pattern=pattern, n_nodes=n_nodes, n_topics=n_topics,
                rt_size=rt_size, n_friends=f, events=events,
            )
    sweep.trial(
        _fig4_rvr_trial, key=("rvr",), seed=seed,
        n_nodes=n_nodes, n_topics=n_topics, rt_size=rt_size, events=events,
    )

    def reduce(results):
        *vitis_rows, rvr_row = results
        rows = [dict(r) for r in vitis_rows]
        metrics = {k: v for k, v in rvr_row.items() if k not in ("system", "pattern")}
        for f in friend_counts:
            rows.append({"system": "rvr", "pattern": "any", "n_friends": f, **metrics})
        return rows

    sweep.reduce = reduce
    return sweep


# ----------------------------------------------------------------------
# Fig. 5 — distribution of traffic overhead over nodes
# ----------------------------------------------------------------------
def _fig5_trial(system, pattern, n_nodes, n_topics, events, seed, bin_edges):
    subs = make_subscriptions(pattern, n_nodes, n_topics, seed)
    build = build_vitis if system == "vitis" else build_rvr
    proto = build(subs, VitisConfig(), seed=seed)
    col = measure(proto, events, seed=seed + 1)
    edges, fractions = col.overhead_histogram(tuple(bin_edges))
    per_node = list(col.per_node_overhead().values())
    g = gini(per_node) if per_node else 0.0
    return [
        {
            "system": system,
            "pattern": pattern,
            "bin_lo": float(lo),
            "bin_hi": float(hi),
            "fraction_of_nodes": float(frac),
            "gini": g,
        }
        for lo, hi, frac in zip(edges[:-1], edges[1:], fractions)
    ]


def fig5_spec(
    n_nodes: int = 300,
    n_topics: int = 1000,
    events: int = 400,
    seed: int = 0,
    bin_edges: Sequence[float] = (0, 10, 20, 30, 40, 50, 60, 70, 80, 90, 100),
) -> Sweep:
    """Fraction of nodes per traffic-overhead bin, Vitis vs RVR on
    correlated and random subscriptions.

    Paper: Vitis shifts mass into the lowest bin and empties the >20%
    bins relative to RVR.
    """
    sweep = Sweep("fig5", reduce=flat_reduce)
    for system in ("vitis", "rvr"):
        for pattern in ("high", "random"):
            sweep.trial(
                _fig5_trial, key=(system, pattern), seed=seed,
                system=system, pattern=pattern, n_nodes=n_nodes,
                n_topics=n_topics, events=events, bin_edges=list(bin_edges),
            )
    return sweep


# ----------------------------------------------------------------------
# Fig. 6 — routing-table size sweep
# ----------------------------------------------------------------------
def _fig6_trial(system, pattern, n_nodes, n_topics, rt_size, events, seed):
    cfg = VitisConfig().with_rt_size(rt_size)
    if system == "vitis":
        subs = make_subscriptions(pattern, n_nodes, n_topics, seed)
        proto = build_vitis(subs, cfg, seed=seed)
    else:
        subs = make_subscriptions("random", n_nodes, n_topics, seed)
        proto = build_rvr(subs, cfg, seed=seed)
    col = measure(proto, events, seed=seed + 1)
    return _metrics_row(col, system=system, pattern=pattern, rt_size=rt_size)


def fig6_spec(
    n_nodes: int = 300,
    n_topics: int = 1000,
    rt_sizes: Sequence[int] = (15, 20, 25, 30, 35),
    patterns: Sequence[str] = PATTERNS,
    events: int = 250,
    seed: int = 0,
) -> Sweep:
    """Overhead and delay vs routing-table size.

    Paper: both fall with bigger tables in both systems; Vitis's extra
    entries become friends (fewer relay paths), RVR's become small-world
    links (shorter lookups).
    """
    sweep = Sweep("fig6")
    for pattern in patterns:
        for rt in rt_sizes:
            sweep.trial(
                _fig6_trial, key=("vitis", pattern, rt), seed=seed,
                system="vitis", pattern=pattern, n_nodes=n_nodes,
                n_topics=n_topics, rt_size=rt, events=events,
            )
    for rt in rt_sizes:
        sweep.trial(
            _fig6_trial, key=("rvr", rt), seed=seed,
            system="rvr", pattern="any", n_nodes=n_nodes,
            n_topics=n_topics, rt_size=rt, events=events,
        )
    return sweep


# ----------------------------------------------------------------------
# Fig. 7 — skewed publication rates
# ----------------------------------------------------------------------
def _fig7_trial(system, pattern, alpha, n_nodes, n_topics, events, seed):
    rates = power_law_rates(n_topics, alpha, seed=seed)
    if system == "vitis":
        subs = make_subscriptions(pattern, n_nodes, n_topics, seed)
        proto = build_vitis(subs, VitisConfig(), seed=seed, rates=rates)
    else:
        subs = make_subscriptions("random", n_nodes, n_topics, seed)
        proto = build_rvr(subs, VitisConfig(), seed=seed, rates=rates)
    col = measure(proto, events, seed=seed + 1)
    return _metrics_row(col, system=system, pattern=pattern, alpha=alpha)


def fig7_spec(
    n_nodes: int = 300,
    n_topics: int = 1000,
    alphas: Sequence[float] = (0.3, 0.5, 1.0, 2.0, 3.0),
    patterns: Sequence[str] = PATTERNS,
    events: int = 250,
    seed: int = 0,
) -> Sweep:
    """Overhead and delay vs the publication-rate power-law exponent.

    Paper: as α grows, hot topics dominate both the utility and the event
    mix; the random-subscription curve approaches the high-correlation
    one.
    """
    sweep = Sweep("fig7")
    for alpha in alphas:
        for pattern in patterns:
            sweep.trial(
                _fig7_trial, key=("vitis", pattern, alpha), seed=seed,
                system="vitis", pattern=pattern, alpha=alpha,
                n_nodes=n_nodes, n_topics=n_topics, events=events,
            )
        sweep.trial(
            _fig7_trial, key=("rvr", alpha), seed=seed,
            system="rvr", pattern="any", alpha=alpha,
            n_nodes=n_nodes, n_topics=n_topics, events=events,
        )
    return sweep


# ----------------------------------------------------------------------
# Figs. 8 & 9 — the (synthetic) Twitter trace itself
# ----------------------------------------------------------------------
def _fig8_trial(n_users, alpha, seed):
    trace = TwitterTrace(n_users, alpha=alpha, seed=seed)
    rows = []
    for kind in ("in", "out"):
        for degree, freq in trace.degree_histogram(kind).items():
            rows.append({"kind": kind, "degree": degree, "frequency": freq})
    return rows


def fig8_spec(n_users: int = 20000, alpha: float = 1.65, seed: int = 0) -> Sweep:
    """Log-log degree/frequency series of the synthetic follower graph."""
    sweep = Sweep("fig8", reduce=flat_reduce)
    sweep.trial(_fig8_trial, key=("trace",), seed=seed, n_users=n_users, alpha=alpha)
    return sweep


def _fig9_trial(n_users, alpha, seed):
    return TwitterTrace(n_users, alpha=alpha, seed=seed).summary()


def fig9_spec(n_users: int = 20000, alpha: float = 1.65, seed: int = 0) -> Sweep:
    """The Fig. 9 statistics table for the synthetic trace."""
    def reduce(results):
        [summary] = results
        return [{"statistic": k, "value": v} for k, v in summary.items()]

    sweep = Sweep("fig9", reduce=reduce)
    sweep.trial(_fig9_trial, key=("trace",), seed=seed, n_users=n_users, alpha=alpha)
    return sweep


# ----------------------------------------------------------------------
# Fig. 10 — real-world (Twitter) subscriptions, three systems
# ----------------------------------------------------------------------
def _fig10_trial(system, rt_size, n_users, sample_size, events, seed, min_out):
    trace = TwitterTrace(n_users, min_out=min_out, seed=seed)
    sample = trace.bfs_sample(sample_size, seed=seed)
    subs = sample.subscriptions()
    cfg = VitisConfig().with_rt_size(rt_size)
    if system == "vitis":
        proto = build_vitis(subs, cfg, seed=seed)
    elif system == "rvr":
        proto = build_rvr(subs, cfg, seed=seed)
    else:
        proto = build_opt(subs, cfg, seed=seed, max_degree=rt_size)
    col = measure(proto, events, seed=seed + 1, publisher="owner")
    return _metrics_row(col, system=system, rt_size=rt_size)


def fig10_spec(
    n_users: int = 6000,
    sample_size: int = 600,
    rt_sizes: Sequence[int] = (15, 25, 35),
    events: int = 250,
    seed: int = 0,
    systems: Sequence[str] = ("vitis", "rvr", "opt"),
    min_out: int = 3,
) -> Sweep:
    """Hit ratio / overhead / delay vs routing-table size on the Twitter
    workload, for Vitis, RVR and OPT.

    Paper: Vitis and RVR hit 100%; bounded OPT climbs from ~55% toward
    ~80%; Vitis's overhead is 30–40% below RVR's; OPT's overhead is 0.
    Publishers are the topic owners (a user publishes on its own topic).

    ``min_out`` keeps the scaled-down sample at a realistic density: the
    paper's 10k sample averages 80 subscriptions (0.8% density); smaller
    samples need proportionally fewer subscriptions per node, else every
    topic subgraph connects trivially and OPT is never stressed.
    """
    sweep = Sweep("fig10")
    for rt in rt_sizes:
        for system in ("vitis", "rvr", "opt"):
            if system in systems:
                sweep.trial(
                    _fig10_trial, key=(system, rt), seed=seed,
                    system=system, rt_size=rt, n_users=n_users,
                    sample_size=sample_size, events=events, min_out=min_out,
                )
    return sweep


# ----------------------------------------------------------------------
# Fig. 11 — OPT with unbounded degree
# ----------------------------------------------------------------------
def _fig11_trial(n_users, sample_size, cycles, seed, min_out):
    trace = TwitterTrace(n_users, min_out=min_out, seed=seed)
    sample = trace.bfs_sample(sample_size, seed=seed)
    opt = build_opt(sample.subscriptions(), VitisConfig(), seed=seed,
                    cycles=cycles, max_degree=None)
    degrees = opt.degree_distribution()
    return [
        {"degree": d, "frequency": f}
        for d, f in frequency_histogram(degrees).items()
    ]


def fig11_spec(
    n_users: int = 6000,
    sample_size: int = 600,
    cycles: int = 40,
    seed: int = 0,
    min_out: int = 3,
) -> Sweep:
    """Node-degree frequency distribution of unbounded-degree OPT on the
    Twitter workload.

    Paper: over two thirds of nodes exceed degree 15; 0.3% exceed 200
    (max observed 708) — unbounded correlation-only overlays do not scale.
    """
    sweep = Sweep("fig11", reduce=flat_reduce)
    sweep.trial(
        _fig11_trial, key=("opt-unbounded",), seed=seed,
        n_users=n_users, sample_size=sample_size, cycles=cycles, min_out=min_out,
    )
    return sweep


# ----------------------------------------------------------------------
# Fig. 12 — churn (Skype trace)
# ----------------------------------------------------------------------
def _fig12_trial(
    system, pool, n_topics, horizon, flash_crowd_at, measure_every,
    events_per_window, seed, min_join_age, median_session, median_offtime,
):
    """One system's full churn timeline — inherently sequential, so the
    whole time series is a single trial."""
    trace = SkypeTrace(
        n_nodes=pool,
        horizon=horizon,
        flash_crowd_at=flash_crowd_at,
        median_session=median_session,
        median_offtime=median_offtime,
        seed=seed,
    )
    subs = low_correlation_subscriptions(pool, n_topics, seed=seed)
    if system == "vitis":
        proto = _churn_vitis(subs, seed)
    elif system == "rvr":
        proto = _churn_rvr(subs, seed)
    else:
        raise ValueError(f"unknown churn system {system!r}")
    trace.schedule().apply(proto.engine, proto.join, proto.leave)

    rows = []
    t = 0.0
    while t < horizon:
        proto.run_cycles(int(measure_every / proto.config.gossip_period))
        t = proto.engine.now
        col = measure(
            proto,
            events_per_window,
            seed=seed + int(t),
            min_join_age=min_join_age,
        )
        rows.append(
            _metrics_row(col, system=system, time=t, live_nodes=proto.live_count())
        )
    return rows


def fig12_spec(
    pool: int = 300,
    n_topics: int = 300,
    horizon: float = 280.0,
    flash_crowd_at: Optional[float] = 180.0,
    measure_every: float = 20.0,
    events_per_window: int = 120,
    seed: int = 0,
    systems: Sequence[str] = ("vitis", "rvr"),
    min_join_age: float = 10.0,
    median_session: float = 60.0,
    median_offtime: float = 120.0,
) -> Sweep:
    """Hit ratio / overhead / delay over time under Skype-like churn.

    Paper: both systems ride out moderate churn; the flash crowd dents
    RVR's hit ratio to ~87% while Vitis stays ≈99%; Vitis's overhead
    bumps up briefly during the crowd (extra gateways), RVR's *drops*
    because its trees are broken.

    Time mapping: one gossip cycle per simulated "hour" of the trace.
    The paper's gossip period is seconds, so a 5.5 h median session spans
    thousands of maintenance rounds; the default session/offtime medians
    here (30/60 cycles) keep the same regime — sessions much longer than
    the failure-detection time — at a simulable cycle count.  Pass the
    measured medians (5.5/12) to reproduce the *relative* churn of
    1 cycle = 1 hour instead, which is far harsher than the paper's.
    """
    unknown = [s for s in systems if s not in ("vitis", "rvr")]
    if unknown:
        raise ValueError(f"unknown churn system {unknown[0]!r}")
    sweep = Sweep("fig12", reduce=flat_reduce)
    for system in systems:
        sweep.trial(
            _fig12_trial, key=(system,), seed=seed,
            system=system, pool=pool, n_topics=n_topics, horizon=horizon,
            flash_crowd_at=flash_crowd_at, measure_every=measure_every,
            events_per_window=events_per_window, min_join_age=min_join_age,
            median_session=median_session, median_offtime=median_offtime,
        )
    return sweep


def _churn_vitis(subs, seed):
    from repro.core.protocol import VitisProtocol

    return VitisProtocol(
        subs,
        VitisConfig(),
        seed=seed,
        auto_start=False,
        election_every=1,
        relay_every=1,
    )


def _churn_rvr(subs, seed):
    from repro.baselines.rvr import RvrProtocol

    return RvrProtocol(subs, VitisConfig(), seed=seed, auto_start=False, relay_every=1)


# ----------------------------------------------------------------------
# Ablations (DESIGN.md section 7)
# ----------------------------------------------------------------------
def _ablation_depth_trial(gateway_depth, n_nodes, n_topics, events, seed):
    from dataclasses import replace

    subs = make_subscriptions("high", n_nodes, n_topics, seed)
    cfg = replace(VitisConfig(), gateway_depth=gateway_depth)
    vitis = build_vitis(subs, cfg, seed=seed)
    col = measure(vitis, events, seed=seed + 1)
    cstats = cluster_stats(vitis)
    row = _metrics_row(col, system="vitis", gateway_depth=gateway_depth)
    row["mean_gateways_per_topic"] = cstats.mean_gateways_per_topic
    row["relay_paths"] = vitis.relay_stats.paths_installed
    return row


def ablation_depth_spec(
    n_nodes: int = 300,
    n_topics: int = 1000,
    depths: Sequence[int] = (1, 2, 5, 8, 12),
    events: int = 250,
    seed: int = 0,
) -> Sweep:
    """Sweep the gateway depth threshold ``d``.

    Small ``d`` → more gateways per cluster → more relay paths (overhead)
    but shorter intra-cluster detours; the paper fixes d=5.
    """
    sweep = Sweep("ablation_depth")
    for d in depths:
        sweep.trial(
            _ablation_depth_trial, key=(d,), seed=seed,
            gateway_depth=d, n_nodes=n_nodes, n_topics=n_topics, events=events,
        )
    return sweep


def _ablation_utility_trial(rate_weighted, alpha, n_nodes, n_topics, events, seed):
    from dataclasses import replace

    rates = power_law_rates(n_topics, alpha, seed=seed)
    subs = make_subscriptions("random", n_nodes, n_topics, seed)
    cfg = replace(VitisConfig(), rate_weighted_utility=rate_weighted)
    vitis = build_vitis(subs, cfg, seed=seed, rates=rates)
    col = measure(vitis, events, seed=seed + 1)
    return _metrics_row(col, system="vitis", rate_weighted=rate_weighted, alpha=alpha)


def ablation_utility_spec(
    n_nodes: int = 300,
    n_topics: int = 1000,
    alpha: float = 2.0,
    events: int = 250,
    seed: int = 0,
) -> Sweep:
    """Rate-weighted Eq. 1 vs plain Jaccard under skewed rates.

    With hot topics, weighting should cluster hot-topic subscribers
    harder and lower the (rate-weighted) average overhead.
    """
    sweep = Sweep("ablation_utility")
    for weighted in (True, False):
        sweep.trial(
            _ablation_utility_trial, key=(weighted,), seed=seed,
            rate_weighted=weighted, alpha=alpha,
            n_nodes=n_nodes, n_topics=n_topics, events=events,
        )
    return sweep


def _ablation_sw_trial(n_sw_links, rt_size, probes, n_nodes, n_topics, seed):
    from repro.analysis.navigability import expected_bound, routing_probe

    subs = make_subscriptions("random", n_nodes, n_topics, seed)
    cfg = VitisConfig(rt_size=rt_size, n_sw_links=n_sw_links)
    vitis = build_vitis(subs, cfg, seed=seed)
    probe = routing_probe(vitis, n_samples=probes, seed=seed + 1)
    col = measure(vitis, 150, seed=seed + 2)
    return {
        "system": "vitis",
        "n_sw_links": n_sw_links,
        "mean_lookup_hops": probe.mean_hops,
        "p95_lookup_hops": probe.p95_hops,
        "consistency_rate": probe.consistency_rate,
        "bound_log2N_over_k": expected_bound(vitis.live_count(), n_sw_links),
        "traffic_overhead_pct": col.traffic_overhead_pct(),
    }


def ablation_sw_spec(
    n_nodes: int = 300,
    n_topics: int = 1000,
    rt_size: int = 15,
    sw_links: Sequence[int] = (1, 3, 7, 13),
    probes: int = 300,
    seed: int = 0,
) -> Sweep:
    """Routing cost vs number of small-world links (Symphony's claim).

    With k structural links greedy routing costs O((1/k)·log²N); trading
    friend links for sw links buys navigability at the price of traffic
    overhead — the quantitative backbone of Fig. 4.
    """
    sweep = Sweep("ablation_sw")
    for k in sw_links:
        sweep.trial(
            _ablation_sw_trial, key=(k,), seed=seed,
            n_sw_links=k, rt_size=rt_size, probes=probes,
            n_nodes=n_nodes, n_topics=n_topics,
        )
    return sweep


def _ablation_proximity_trial(beta, n_nodes, n_topics, events, seed):
    from repro.core.proximity import ProximityUtility
    from repro.sim.latency import CoordinateLatency, CoordinateSpace
    from repro.sim.rng import SeedTree

    subs = make_subscriptions("high", n_nodes, n_topics, seed)
    coord_rng = SeedTree(seed).pyrandom("coords")
    coords = CoordinateSpace.clustered(range(n_nodes), coord_rng, n_sites=5)
    cost_model = CoordinateLatency(coords)
    utility = ProximityUtility(coords, beta=beta)
    vitis = build_vitis(subs, VitisConfig(), seed=seed, utility=utility)
    vitis.link_cost = cost_model.cost
    col = measure(vitis, events, seed=seed + 1)
    row = _metrics_row(col, system="vitis", beta=beta)
    row["mean_physical_cost"] = col.mean_physical_cost()
    return row


def ablation_proximity_spec(
    n_nodes: int = 300,
    n_topics: int = 1000,
    betas: Sequence[float] = (0.0, 0.2, 0.5),
    events: int = 250,
    seed: int = 0,
) -> Sweep:
    """Proximity-aware preference function (the paper's suggested
    extension, section III-A2), evaluated.

    Nodes sit in a clustered coordinate space (regional sites); the
    utility blends Eq. 1 with physical closeness (weight ``beta``).
    Expected trade-off: moderate beta cuts the physical cost of event
    dissemination at full delivery; large beta erodes interest clustering
    and the traffic overhead climbs.
    """
    sweep = Sweep("ablation_proximity")
    for beta in betas:
        sweep.trial(
            _ablation_proximity_trial, key=(beta,), seed=seed,
            beta=beta, n_nodes=n_nodes, n_topics=n_topics, events=events,
        )
    return sweep


def _management_cost_trial(system, n_users, sample_size, rt_size, seed):
    from repro.analysis.control_traffic import (
        estimate_control_messages,
        per_node_link_load,
    )

    trace = TwitterTrace(n_users, min_out=3, seed=seed)
    subs = trace.bfs_sample(sample_size, seed=seed).subscriptions()
    cfg = VitisConfig(rt_size=rt_size)
    if system == "vitis":
        proto = build_vitis(subs, cfg, seed=seed)
    elif system == "rvr":
        proto = build_rvr(subs, cfg, seed=seed)
    elif system == "opt-bounded":
        proto = build_opt(subs, cfg, seed=seed, max_degree=rt_size)
    else:
        proto = build_opt(subs, cfg, seed=seed, max_degree=None)
    est = estimate_control_messages(proto)
    load = sorted(per_node_link_load(proto).values())
    return {
        "system": system,
        "per_node_msgs_per_cycle": est["per_node"],
        "max_links_per_node": load[-1] if load else 0,
        "p99_links_per_node": load[int(0.99 * (len(load) - 1))] if load else 0,
    }


def management_cost_spec(
    n_users: int = 4000,
    sample_size: int = 400,
    rt_size: int = 15,
    seed: int = 0,
) -> Sweep:
    """Overlay-management message cost per node, across the three systems
    on the Twitter workload (the section II scalability argument).

    Vitis/RVR cost is bounded by the routing-table size regardless of
    subscription counts; unbounded OPT's cost follows its degree, which
    follows the (heavy-tailed) subscription distribution.
    """
    sweep = Sweep("management_cost")
    for system in ("vitis", "rvr", "opt-bounded", "opt-unbounded"):
        sweep.trial(
            _management_cost_trial, key=(system,), seed=seed,
            system=system, n_users=n_users, sample_size=sample_size,
            rt_size=rt_size,
        )
    return sweep


def _ablation_sampler_trial(sampler, n_nodes, n_topics, events, seed):
    from repro.gossip.cyclon import CyclonService
    from repro.gossip.peer_sampling import PeerSamplingService

    cls = {"newscast": PeerSamplingService, "cyclon": CyclonService}[sampler]
    subs = make_subscriptions("high", n_nodes, n_topics, seed)
    vitis = build_vitis(subs, VitisConfig(), seed=seed, sampler_cls=cls)
    col = measure(vitis, events, seed=seed + 1)
    return _metrics_row(col, system="vitis", sampler=sampler)


def ablation_sampler_spec(
    n_nodes: int = 300,
    n_topics: int = 1000,
    events: int = 250,
    seed: int = 0,
) -> Sweep:
    """Swap the peer sampling implementation (Newscast vs Cyclon).

    The paper claims any gossip sampling service works (section III-A);
    the metrics should be statistically indistinguishable.
    """
    sweep = Sweep("ablation_sampler")
    for sampler in ("newscast", "cyclon"):
        sweep.trial(
            _ablation_sampler_trial, key=(sampler,), seed=seed,
            sampler=sampler, n_nodes=n_nodes, n_topics=n_topics, events=events,
        )
    return sweep


# ----------------------------------------------------------------------
# Fault sweep (docs/robustness.md): delivery under faults, healing active
# ----------------------------------------------------------------------
def _fault_build(system, subs, seed):
    cfg = VitisConfig()
    if system == "vitis":
        return build_vitis(subs, cfg, seed=seed)
    if system == "rvr":
        return build_rvr(subs, cfg, seed=seed)
    return build_opt(subs, cfg, seed=seed)


def _fault_row(collector, proto, model, **params) -> Dict:
    row = _metrics_row(collector, **params)
    row.update(
        faults_injected=model.injected,
        retries=proto.fault_retries,
        repairs=proto.fault_repairs,
    )
    return row


def _fault_loss_trial(
    system, loss_rate, index, n_nodes, n_topics, kill_frac, heal_cycles,
    events, seed, fault_seed,
):
    """Loss axis: i.i.d. loss plus a crash burst, healed, then measured
    with the loss still active."""
    from repro.faults import HealingPolicy, MessageLoss, crash_nodes
    from repro.sim.churn import ChurnSchedule
    from repro.sim.rng import SeedTree

    cfg = VitisConfig()
    subs = make_subscriptions("high", n_nodes, n_topics, seed)
    froot = SeedTree(fault_seed)
    proto = _fault_build(system, subs, seed)
    model = MessageLoss(loss_rate, froot.pyrandom("loss", system, index))
    proto.attach_faults(model, HealingPolicy())
    kill_rng = froot.pyrandom("kill", system, index)
    live = sorted(proto.live_addresses())
    victims = sorted(kill_rng.sample(live, int(len(live) * kill_frac)))
    if victims:
        sched = ChurnSchedule.crashes(
            victims,
            at=proto.engine.now,
            spread=2 * cfg.gossip_period,
            rng=kill_rng,
        )
        sched.apply(
            proto.engine,
            join=proto.join,
            leave=lambda a, p=proto: crash_nodes(p, (a,)) and None,
        )
    proto.run_cycles(heal_cycles)
    collector = measure(proto, events, seed=seed)
    return [_fault_row(
        collector, proto, model,
        system=system, fault="loss", loss_rate=loss_rate,
        partition=0, phase="steady",
    )]


def _fault_partition_trial(
    system, duration, n_nodes, n_topics, heal_cycles, events, seed, fault_seed,
):
    """Partition axis: measured just before the partition heals and again
    ``heal_cycles`` cycles after."""
    from repro.faults import HealingPolicy, Partition
    from repro.sim.rng import SeedTree

    cfg = VitisConfig()
    subs = make_subscriptions("high", n_nodes, n_topics, seed)
    froot = SeedTree(fault_seed)
    proto = _fault_build(system, subs, seed)
    now = proto.engine.now
    # Heal mid-cycle so the measurement after d cycles still falls
    # inside the partition window regardless of driver phase.
    model = Partition.halves(
        proto.live_addresses(),
        start=now,
        heal_at=now + (duration + 0.5) * cfg.gossip_period,
        rng=froot.pyrandom("partition", system, duration),
    )
    proto.attach_faults(model, HealingPolicy())
    proto.run_cycles(duration)
    collector = measure(proto, events, seed=seed)
    rows = [_fault_row(
        collector, proto, model,
        system=system, fault="partition", loss_rate=0.0,
        partition=duration, phase="partitioned",
    )]
    proto.run_cycles(heal_cycles)
    collector = measure(proto, events, seed=seed)
    rows.append(_fault_row(
        collector, proto, model,
        system=system, fault="partition", loss_rate=0.0,
        partition=duration, phase="healed",
    ))
    return rows


def fault_sweep_spec(
    n_nodes: int = 200,
    n_topics: int = 400,
    loss_rates: Sequence[float] = (0.0, 0.05, 0.1, 0.2),
    partition_cycles: Sequence[int] = (),
    kill_frac: float = 0.1,
    heal_cycles: int = 12,
    events: int = 150,
    seed: int = 0,
    fault_seed: Optional[int] = None,
    systems: Sequence[str] = ("vitis", "rvr", "opt"),
) -> Sweep:
    """Hit ratio / delay / overhead under injected faults, repair running.

    Two swept axes, same three systems:

    - **loss axis** — for each rate in ``loss_rates``: i.i.d. message
      loss (``repro.faults.MessageLoss``) plus a crash burst killing
      ``kill_frac`` of the population (scheduled through
      ``ChurnSchedule.crashes``), then ``heal_cycles`` gossip cycles for
      heartbeat eviction and relay repair, then measurement with the loss
      still active (rows with ``fault="loss"``, ``phase="steady"``);
    - **partition axis** — for each duration ``d`` in
      ``partition_cycles``: a half/half partition held for ``d`` cycles,
      measured once just before it heals (``phase="partitioned"``) and
      once ``heal_cycles`` cycles after (``phase="healed"``).

    All fault randomness derives from ``fault_seed`` (defaults to
    ``seed``), through per-(axis, system, point) :class:`SeedTree`
    streams — the same fault seed replays the exact same faults, while
    the build stays pinned to ``seed``.  Each row also reports
    ``faults_injected`` (from the model), ``retries`` and ``repairs``
    (from the protocol) so the healing machinery is visible without
    telemetry.
    """
    known = ("vitis", "rvr", "opt")
    unknown = [s for s in systems if s not in known]
    if unknown:
        raise ValueError(
            f"unknown systems {unknown}; expected subset of {sorted(known)}"
        )
    fault_seed = seed if fault_seed is None else fault_seed
    sweep = Sweep("fault_sweep", reduce=flat_reduce)
    for i, rate in enumerate(loss_rates):
        for system in systems:
            sweep.trial(
                _fault_loss_trial, key=("loss", system, i), seed=seed,
                system=system, loss_rate=rate, index=i,
                n_nodes=n_nodes, n_topics=n_topics, kill_frac=kill_frac,
                heal_cycles=heal_cycles, events=events, fault_seed=fault_seed,
            )
    for d in partition_cycles:
        for system in systems:
            sweep.trial(
                _fault_partition_trial, key=("partition", system, d), seed=seed,
                system=system, duration=d,
                n_nodes=n_nodes, n_topics=n_topics,
                heal_cycles=heal_cycles, events=events, fault_seed=fault_seed,
            )
    return sweep


# ----------------------------------------------------------------------
# Scenario registry — one entry per CLI command, each owning the bench
# sizes the CLI multiplies by --scale (previously a dict in cli.py).
# ----------------------------------------------------------------------
def _fault_sweep_adjust(kwargs: Dict[str, int]) -> Dict[str, int]:
    # The bucketed subscription generator needs n_topics divisible by
    # its bucket count (n_topics/50 for the "high" pattern).
    nt = kwargs.get("n_topics", 400)
    kwargs["n_topics"] = max(100, 50 * round(nt / 50))
    return kwargs


SCENARIOS: Dict[str, Scenario] = {
    s.name: s
    for s in (
        Scenario("fig4", fig4_spec, {"n_nodes": 300, "n_topics": 1000}),
        Scenario("fig5", fig5_spec, {"n_nodes": 300, "n_topics": 1000}),
        Scenario("fig6", fig6_spec, {"n_nodes": 300, "n_topics": 1000}),
        Scenario("fig7", fig7_spec, {"n_nodes": 300, "n_topics": 1000}),
        Scenario("fig8", fig8_spec, {"n_users": 20000}),
        Scenario("fig9", fig9_spec, {"n_users": 20000}),
        Scenario("fig10", fig10_spec, {"n_users": 6000, "sample_size": 600}),
        Scenario("fig11", fig11_spec, {"n_users": 6000, "sample_size": 600}),
        Scenario("fig12", fig12_spec, {"pool": 250}),
        Scenario("ablation_depth", ablation_depth_spec,
                 {"n_nodes": 300, "n_topics": 1000}),
        Scenario("ablation_utility", ablation_utility_spec,
                 {"n_nodes": 300, "n_topics": 1000}),
        Scenario("ablation_sampler", ablation_sampler_spec,
                 {"n_nodes": 300, "n_topics": 1000}),
        Scenario("ablation_sw", ablation_sw_spec,
                 {"n_nodes": 300, "n_topics": 1000}),
        Scenario("ablation_proximity", ablation_proximity_spec,
                 {"n_nodes": 300, "n_topics": 1000}),
        Scenario("management_cost", management_cost_spec,
                 {"n_users": 4000, "sample_size": 400}),
        Scenario("fault_sweep", fault_sweep_spec,
                 {"n_nodes": 200, "n_topics": 400}, adjust=_fault_sweep_adjust),
        Scenario("overload_sweep", overload_sweep_spec,
                 {"n_nodes": 200, "n_topics": 400}, adjust=_fault_sweep_adjust),
        Scenario("chaos_sweep", chaos_sweep_spec,
                 {"n_nodes": 200, "n_topics": 400}, adjust=_fault_sweep_adjust),
    )
}
