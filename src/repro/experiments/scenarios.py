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
larger sizes, or use the CLI's ``--scale`` to approach that.  Each
:data:`SCENARIOS` entry names the builder parameters ``--scale``
multiplies; their values are the builder's defaults.

A builder takes a parameter only where some entry point (the CLI, a
contract command, a sweep benchmark) passes it two values; everything
else the paper's section IV fixes is a constant of the trial function,
stated in the builder's docstring (``tools/census.py`` fails on a
parameter that takes one value across the entry points).  Settings
shared with the paper: routing table 15 (1 sw link + 2 ring links + 12
friends, section IV-B), gateway depth d=5, 50 subscriptions per node
over a 10:1 node:bucket topic universe, uniform publication rates
unless the scenario sweeps them.
"""

from __future__ import annotations

from dataclasses import replace
from functools import lru_cache
from typing import Dict, Optional, Sequence, Tuple

from repro.analysis.clusters import cluster_stats
from repro.analysis.distributions import frequency_histogram, gini
from repro.baselines.rvr import RvrProtocol
from repro.core.config import VitisConfig
from repro.core.protocol import VitisProtocol
from repro.experiments.chaos import chaos_sweep_spec
from repro.experiments.overload import overload_sweep_spec
from repro.experiments.runner import (
    PATTERNS,
    build_opt,
    build_rvr,
    build_system,
    build_vitis,
    make_subscriptions,
    measure,
    metrics_row,
)
from repro.experiments.spec import Scenario, Sweep, flat_reduce
from repro.workloads.publication import power_law_rates
from repro.workloads.skype import SkypeTrace
from repro.workloads.subscriptions import low_correlation_subscriptions
from repro.workloads.twitter import TwitterTrace

__all__ = [
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


# ----------------------------------------------------------------------
# Fig. 4 — friends vs sw-neighbors (section IV-B)
# ----------------------------------------------------------------------
FRIEND_COUNTS = (0, 3, 6, 9, 12)


def _fig4_vitis_trial(pattern, n_nodes, n_topics, n_friends, seed):
    subs = make_subscriptions(pattern, n_nodes, n_topics, seed)
    vitis = build_vitis(subs, VitisConfig().with_friends(n_friends), seed=seed)
    col = measure(vitis, 250, seed=seed + 1)
    return metrics_row(col, system="vitis", pattern=pattern, n_friends=n_friends)


def _fig4_rvr_trial(n_nodes, n_topics, seed):
    # RVR has no friend knob and behaves alike across patterns: one line.
    subs = make_subscriptions("random", n_nodes, n_topics, seed)
    col = measure(build_rvr(subs, seed=seed), 250, seed=seed + 1)
    return metrics_row(col, system="rvr", pattern="any")


def fig4_spec(n_nodes: int = 300, n_topics: int = 1000, seed: int = 0) -> Sweep:
    """Traffic overhead and delay as friend links replace sw links: 0–12
    of the 15 routing-table entries, on each synthetic pattern, over 250
    events.

    Paper: Vitis overhead drops steeply with more friends (88% reduction
    on high correlation); RVR is a flat reference line; hit ratio is 100%
    everywhere.
    """
    sweep = Sweep("fig4")
    for pattern in PATTERNS:
        for f in FRIEND_COUNTS:
            sweep.trial(
                _fig4_vitis_trial, key=("vitis", pattern, f), seed=seed,
                pattern=pattern, n_nodes=n_nodes, n_topics=n_topics, n_friends=f,
            )
    sweep.trial(_fig4_rvr_trial, key=("rvr",), seed=seed, n_nodes=n_nodes, n_topics=n_topics)

    def reduce(results):
        *vitis_rows, rvr_row = results
        rows = [dict(r) for r in vitis_rows]
        metrics = {k: v for k, v in rvr_row.items() if k not in ("system", "pattern")}
        for f in FRIEND_COUNTS:
            rows.append({"system": "rvr", "pattern": "any", "n_friends": f, **metrics})
        return rows

    sweep.reduce = reduce
    return sweep


# ----------------------------------------------------------------------
# Fig. 5 — distribution of traffic overhead over nodes
# ----------------------------------------------------------------------
def _fig5_trial(system, pattern, n_nodes, n_topics, seed):
    subs = make_subscriptions(pattern, n_nodes, n_topics, seed)
    col = measure(build_system(system, subs, seed=seed), 400, seed=seed + 1)
    edges, fractions = col.overhead_histogram()
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


def fig5_spec(n_nodes: int = 300, n_topics: int = 1000, seed: int = 0) -> Sweep:
    """Fraction of nodes per 10%-wide traffic-overhead bin over 400
    events, Vitis vs RVR on correlated and random subscriptions.

    Paper: Vitis shifts mass into the lowest bin and empties the >20%
    bins relative to RVR.
    """
    sweep = Sweep("fig5", reduce=flat_reduce)
    for system in ("vitis", "rvr"):
        for pattern in ("high", "random"):
            sweep.trial(
                _fig5_trial, key=(system, pattern), seed=seed,
                system=system, pattern=pattern, n_nodes=n_nodes, n_topics=n_topics,
            )
    return sweep


# ----------------------------------------------------------------------
# Fig. 6 — routing-table size sweep
# ----------------------------------------------------------------------
RT_SIZES = (15, 20, 25, 30, 35)


def _fig6_trial(system, pattern, n_nodes, n_topics, rt_size, seed):
    # RVR ignores correlation: its one line runs on random subscriptions.
    subs = make_subscriptions("random" if system == "rvr" else pattern,
                              n_nodes, n_topics, seed)
    proto = build_system(system, subs, VitisConfig().with_rt_size(rt_size), seed=seed)
    col = measure(proto, 250, seed=seed + 1)
    return metrics_row(col, system=system, pattern=pattern, rt_size=rt_size)


def fig6_spec(n_nodes: int = 300, n_topics: int = 1000, seed: int = 0) -> Sweep:
    """Overhead and delay vs routing-table size (15 to 35 in steps of 5),
    over 250 events.

    Paper: both fall with bigger tables in both systems; Vitis's extra
    entries become friends (fewer relay paths), RVR's become small-world
    links (shorter lookups).
    """
    sweep = Sweep("fig6")
    for pattern in PATTERNS:
        for rt in RT_SIZES:
            sweep.trial(
                _fig6_trial, key=("vitis", pattern, rt), seed=seed,
                system="vitis", pattern=pattern, n_nodes=n_nodes,
                n_topics=n_topics, rt_size=rt,
            )
    for rt in RT_SIZES:
        sweep.trial(
            _fig6_trial, key=("rvr", rt), seed=seed,
            system="rvr", pattern="any", n_nodes=n_nodes,
            n_topics=n_topics, rt_size=rt,
        )
    return sweep


# ----------------------------------------------------------------------
# Fig. 7 — skewed publication rates
# ----------------------------------------------------------------------
ALPHAS = (0.3, 0.5, 1.0, 2.0, 3.0)


def _fig7_trial(system, pattern, alpha, n_nodes, n_topics, seed):
    rates = power_law_rates(n_topics, alpha, seed=seed)
    subs = make_subscriptions("random" if system == "rvr" else pattern,
                              n_nodes, n_topics, seed)
    col = measure(build_system(system, subs, seed=seed, rates=rates), 250, seed=seed + 1)
    return metrics_row(col, system=system, pattern=pattern, alpha=alpha)


def fig7_spec(n_nodes: int = 300, n_topics: int = 1000, seed: int = 0) -> Sweep:
    """Overhead and delay vs the publication-rate power-law exponent α
    (0.3, 0.5, 1, 2 and 3), over 250 events.

    Paper: as α grows, hot topics dominate both the utility and the event
    mix; the random-subscription curve approaches the high-correlation
    one.
    """
    sweep = Sweep("fig7")
    for alpha in ALPHAS:
        for pattern in PATTERNS:
            sweep.trial(
                _fig7_trial, key=("vitis", pattern, alpha), seed=seed,
                system="vitis", pattern=pattern, alpha=alpha,
                n_nodes=n_nodes, n_topics=n_topics,
            )
        sweep.trial(
            _fig7_trial, key=("rvr", alpha), seed=seed,
            system="rvr", pattern="any", alpha=alpha,
            n_nodes=n_nodes, n_topics=n_topics,
        )
    return sweep


# ----------------------------------------------------------------------
# Figs. 8 & 9 — the (synthetic) Twitter trace itself, exponent 1.65
# ----------------------------------------------------------------------
def _fig8_trial(n_users, seed):
    trace = TwitterTrace(n_users, seed=seed)
    rows = []
    for kind in ("in", "out"):
        for degree, freq in trace.degree_histogram(kind).items():
            rows.append({"kind": kind, "degree": degree, "frequency": freq})
    return rows


def fig8_spec(n_users: int = 20000, seed: int = 0) -> Sweep:
    """Log-log degree/frequency series of the synthetic follower graph."""
    sweep = Sweep("fig8", reduce=flat_reduce)
    sweep.trial(_fig8_trial, key=("trace",), seed=seed, n_users=n_users)
    return sweep


def _fig9_trial(n_users, seed):
    return TwitterTrace(n_users, seed=seed).summary()


def fig9_spec(n_users: int = 20000, seed: int = 0) -> Sweep:
    """The Fig. 9 statistics table for the synthetic trace."""
    def reduce(results):
        [summary] = results
        return [{"statistic": k, "value": v} for k, v in summary.items()]

    sweep = Sweep("fig9", reduce=reduce)
    sweep.trial(_fig9_trial, key=("trace",), seed=seed, n_users=n_users)
    return sweep


# ----------------------------------------------------------------------
# Fig. 10 — real-world (Twitter) subscriptions, three systems
# ----------------------------------------------------------------------
@lru_cache(maxsize=1)
def _twitter_subscriptions(n_users: int, sample_size: int, seed: int) -> Tuple[frozenset, ...]:
    """The per-node topic sets of a BFS sample of the Twitter trace.

    Every trial of fig10, fig11 and management_cost samples the same
    trace, so a process keeps the last sample it built; the result is
    immutable, so trials cannot see each other's use of it.

    Each user follows at least 3 others, which keeps the scaled-down
    sample at a realistic density: the paper's 10k sample averages 80
    subscriptions (0.8% density); smaller samples need proportionally
    fewer subscriptions per node, else every topic subgraph connects
    trivially and OPT is never stressed.
    """
    trace = TwitterTrace(n_users, min_out=3, seed=seed)
    return tuple(trace.bfs_sample(sample_size, seed=seed).subscriptions())


def _fig10_trial(system, rt_size, n_users, sample_size, seed):
    subs = _twitter_subscriptions(n_users, sample_size, seed)
    proto = build_system(system, subs, VitisConfig().with_rt_size(rt_size), seed=seed)
    col = measure(proto, 250, seed=seed + 1, publisher="owner")
    return metrics_row(col, system=system, rt_size=rt_size)


def fig10_spec(n_users: int = 6000, sample_size: int = 600, seed: int = 0) -> Sweep:
    """Hit ratio / overhead / delay vs routing-table size (15, 25, 35)
    on the Twitter workload over 250 events, for Vitis, RVR and OPT (its
    degree bounded by the table size).

    Paper: Vitis and RVR hit 100%; bounded OPT climbs from ~55% toward
    ~80%; Vitis's overhead is 30–40% below RVR's; OPT's overhead is 0.
    Publishers are the topic owners (a user publishes on its own topic).
    """
    sweep = Sweep("fig10")
    for rt in (15, 25, 35):
        for system in ("vitis", "rvr", "opt"):
            sweep.trial(
                _fig10_trial, key=(system, rt), seed=seed,
                system=system, rt_size=rt, n_users=n_users, sample_size=sample_size,
            )
    return sweep


# ----------------------------------------------------------------------
# Fig. 11 — OPT with unbounded degree
# ----------------------------------------------------------------------
def _fig11_trial(n_users, sample_size, seed):
    subs = _twitter_subscriptions(n_users, sample_size, seed)
    degrees = build_opt(subs, seed=seed, max_degree=None).degree_distribution()
    return [
        {"degree": d, "frequency": f}
        for d, f in frequency_histogram(degrees).items()
    ]


def fig11_spec(n_users: int = 6000, sample_size: int = 600, seed: int = 0) -> Sweep:
    """Node-degree frequency distribution of unbounded-degree OPT on the
    Twitter workload, after 40 gossip cycles.

    Paper: over two thirds of nodes exceed degree 15; 0.3% exceed 200
    (max observed 708) — unbounded correlation-only overlays do not scale.
    """
    sweep = Sweep("fig11", reduce=flat_reduce)
    sweep.trial(
        _fig11_trial, key=("opt-unbounded",), seed=seed,
        n_users=n_users, sample_size=sample_size,
    )
    return sweep


# ----------------------------------------------------------------------
# Fig. 12 — churn (Skype trace)
# ----------------------------------------------------------------------
#: Fig. 12's timeline in gossip cycles: the flash crowd arrives at cycle
#: 180 of 280.
FLASH_CROWD_AT = 180.0
HORIZON = 280.0


def _fig12_trial(system, pool, seed):
    """One system's full churn timeline — inherently sequential, so the
    whole time series is a single trial."""
    trace = SkypeTrace(
        n_nodes=pool,
        horizon=HORIZON,
        flash_crowd_at=FLASH_CROWD_AT,
        median_session=60.0,
        median_offtime=120.0,
        seed=seed,
    )
    subs = low_correlation_subscriptions(pool, 300, seed=seed)
    if system == "vitis":
        proto = VitisProtocol(subs, VitisConfig(), seed=seed, auto_start=False,
                              election_every=1, relay_every=1)
    else:
        proto = RvrProtocol(subs, VitisConfig(), seed=seed, auto_start=False, relay_every=1)
    trace.schedule().apply(proto.engine, proto.join, proto.leave)

    rows = []
    t = 0.0
    while t < HORIZON:
        proto.run_cycles(int(20.0 / proto.config.gossip_period))
        t = proto.engine.now
        # The paper's 10-second rule: only subscribers that joined at
        # least 10 s ago count towards the hit ratio.
        col = measure(proto, 120, seed=seed + int(t), min_join_age=10.0)
        rows.append(
            metrics_row(col, system=system, time=t, live_nodes=proto.live_count())
        )
    return rows


def fig12_spec(pool: int = 250, seed: int = 0) -> Sweep:
    """Hit ratio / overhead / delay over time under Skype-like churn,
    Vitis and RVR, measured with 120 events every 20 cycles for 280
    cycles; 300 topics, low-correlation subscriptions, and a flash crowd
    at cycle 180.

    Paper: both systems ride out moderate churn; the flash crowd dents
    RVR's hit ratio to ~87% while Vitis stays ≈99%; Vitis's overhead
    bumps up briefly during the crowd (extra gateways), RVR's *drops*
    because its trees are broken.

    Time mapping: one gossip cycle per simulated "hour" of the trace.
    The paper's gossip period is seconds, so a 5.5 h median session spans
    thousands of maintenance rounds; the session/offtime medians here
    (60/120 cycles) keep the same regime — sessions much longer than the
    failure-detection time — at a simulable cycle count.
    """
    sweep = Sweep("fig12", reduce=flat_reduce)
    for system in ("vitis", "rvr"):
        sweep.trial(_fig12_trial, key=(system,), seed=seed, system=system, pool=pool)
    return sweep


# ----------------------------------------------------------------------
# Ablations (DESIGN.md section 7)
# ----------------------------------------------------------------------
def _ablation_depth_trial(gateway_depth, n_nodes, n_topics, seed):
    subs = make_subscriptions("high", n_nodes, n_topics, seed)
    vitis = build_vitis(subs, replace(VitisConfig(), gateway_depth=gateway_depth), seed=seed)
    col = measure(vitis, 250, seed=seed + 1)
    cstats = cluster_stats(vitis)
    row = metrics_row(col, system="vitis", gateway_depth=gateway_depth)
    row["mean_gateways_per_topic"] = cstats.mean_gateways_per_topic
    row["relay_paths"] = vitis.relay_stats.paths_installed
    return row


def ablation_depth_spec(n_nodes: int = 300, n_topics: int = 1000, seed: int = 0) -> Sweep:
    """Sweep the gateway depth threshold ``d`` over 1, 2, 5, 8 and 12,
    250 events each.

    Small ``d`` → more gateways per cluster → more relay paths (overhead)
    but shorter intra-cluster detours; the paper fixes d=5.
    """
    sweep = Sweep("ablation_depth")
    for d in (1, 2, 5, 8, 12):
        sweep.trial(
            _ablation_depth_trial, key=(d,), seed=seed,
            gateway_depth=d, n_nodes=n_nodes, n_topics=n_topics,
        )
    return sweep


def _ablation_utility_trial(rate_weighted, n_nodes, n_topics, seed):
    rates = power_law_rates(n_topics, 2.0, seed=seed)
    subs = make_subscriptions("random", n_nodes, n_topics, seed)
    cfg = replace(VitisConfig(), rate_weighted_utility=rate_weighted)
    vitis = build_vitis(subs, cfg, seed=seed, rates=rates)
    col = measure(vitis, 250, seed=seed + 1)
    return metrics_row(col, system="vitis", rate_weighted=rate_weighted, alpha=2.0)


def ablation_utility_spec(n_nodes: int = 300, n_topics: int = 1000, seed: int = 0) -> Sweep:
    """Rate-weighted Eq. 1 vs plain Jaccard under skewed rates (α = 2),
    250 events each.

    With hot topics, weighting should cluster hot-topic subscribers
    harder and lower the (rate-weighted) average overhead.
    """
    sweep = Sweep("ablation_utility")
    for weighted in (True, False):
        sweep.trial(
            _ablation_utility_trial, key=(weighted,), seed=seed,
            rate_weighted=weighted, n_nodes=n_nodes, n_topics=n_topics,
        )
    return sweep


def _ablation_sw_trial(n_sw_links, n_nodes, n_topics, seed):
    from repro.analysis.navigability import expected_bound, routing_probe

    subs = make_subscriptions("random", n_nodes, n_topics, seed)
    vitis = build_vitis(subs, VitisConfig(n_sw_links=n_sw_links), seed=seed)
    probe = routing_probe(vitis, n_samples=300, seed=seed + 1)
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


def ablation_sw_spec(n_nodes: int = 300, n_topics: int = 1000, seed: int = 0) -> Sweep:
    """Routing cost vs number of small-world links (1, 3, 7 and 13 of the
    15 routing-table entries; 300 greedy lookups each) — Symphony's claim.

    With k structural links greedy routing costs O((1/k)·log²N); trading
    friend links for sw links buys navigability at the price of traffic
    overhead — the quantitative backbone of Fig. 4.
    """
    sweep = Sweep("ablation_sw")
    for k in (1, 3, 7, 13):
        sweep.trial(
            _ablation_sw_trial, key=(k,), seed=seed,
            n_sw_links=k, n_nodes=n_nodes, n_topics=n_topics,
        )
    return sweep


def _ablation_proximity_trial(beta, n_nodes, n_topics, seed):
    from repro.core.proximity import ProximityUtility
    from repro.sim.latency import CoordinateLatency, CoordinateSpace
    from repro.sim.rng import SeedTree

    subs = make_subscriptions("high", n_nodes, n_topics, seed)
    coord_rng = SeedTree(seed).pyrandom("coords")
    coords = CoordinateSpace.clustered(range(n_nodes), coord_rng, n_sites=5)
    cost_model = CoordinateLatency(coords)
    utility = ProximityUtility(coords, beta=beta)
    vitis = build_vitis(subs, seed=seed, utility=utility)
    vitis.link_cost = cost_model.cost
    col = measure(vitis, 250, seed=seed + 1)
    row = metrics_row(col, system="vitis", beta=beta)
    row["mean_physical_cost"] = col.mean_physical_cost()
    return row


def ablation_proximity_spec(
    n_nodes: int = 300, n_topics: int = 1000, seed: int = 0
) -> Sweep:
    """Proximity-aware preference function (the paper's suggested
    extension, section III-A2), evaluated.

    Nodes sit in a clustered coordinate space (regional sites); the
    utility blends Eq. 1 with physical closeness (weight ``beta`` of 0,
    0.2 and 0.5; 250 events each).  Expected trade-off: moderate beta
    cuts the physical cost of event dissemination at full delivery;
    large beta erodes interest clustering and the traffic overhead
    climbs.
    """
    sweep = Sweep("ablation_proximity")
    for beta in (0.0, 0.2, 0.5):
        sweep.trial(
            _ablation_proximity_trial, key=(beta,), seed=seed,
            beta=beta, n_nodes=n_nodes, n_topics=n_topics,
        )
    return sweep


def _management_cost_trial(system, n_users, sample_size, seed):
    from repro.analysis.control_traffic import (
        estimate_control_messages,
        per_node_link_load,
    )

    subs = _twitter_subscriptions(n_users, sample_size, seed)
    if system == "opt-unbounded":
        proto = build_opt(subs, seed=seed, max_degree=None)
    else:
        proto = build_system(system.removesuffix("-bounded"), subs, seed=seed)
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
        )
    return sweep


def _ablation_sampler_trial(sampler, n_nodes, n_topics, seed):
    from repro.gossip.cyclon import CyclonService
    from repro.gossip.peer_sampling import PeerSamplingService

    cls = {"newscast": PeerSamplingService, "cyclon": CyclonService}[sampler]
    subs = make_subscriptions("high", n_nodes, n_topics, seed)
    vitis = build_vitis(subs, seed=seed, sampler_cls=cls)
    col = measure(vitis, 250, seed=seed + 1)
    return metrics_row(col, system="vitis", sampler=sampler)


def ablation_sampler_spec(n_nodes: int = 300, n_topics: int = 1000, seed: int = 0) -> Sweep:
    """Swap the peer sampling implementation (Newscast vs Cyclon), 250
    events each.

    The paper claims any gossip sampling service works (section III-A);
    the metrics should be statistically indistinguishable.
    """
    sweep = Sweep("ablation_sampler")
    for sampler in ("newscast", "cyclon"):
        sweep.trial(
            _ablation_sampler_trial, key=(sampler,), seed=seed,
            sampler=sampler, n_nodes=n_nodes, n_topics=n_topics,
        )
    return sweep


# ----------------------------------------------------------------------
# Fault sweep (docs/robustness.md): delivery under faults, healing active
# ----------------------------------------------------------------------
FAULT_SYSTEMS = ("vitis", "rvr", "opt")


def _fault_row(collector, proto, model, **params) -> Dict:
    row = metrics_row(collector, **params)
    row.update(
        faults_injected=model.injected,
        retries=proto.fault_retries,
        repairs=proto.fault_repairs,
    )
    return row


def _fault_loss_trial(
    system, loss_rate, index, n_nodes, n_topics, heal_cycles, events, seed, fault_seed,
):
    """Loss axis: i.i.d. loss plus a crash burst of 10% of the nodes,
    healed, then measured with the loss still active."""
    from repro.faults import HealingPolicy, MessageLoss, crash_nodes
    from repro.sim.churn import ChurnSchedule
    from repro.sim.rng import SeedTree

    subs = make_subscriptions("high", n_nodes, n_topics, seed)
    froot = SeedTree(fault_seed)
    proto = build_system(system, subs, seed=seed)
    model = MessageLoss(loss_rate, froot.pyrandom("loss", system, index))
    proto.attach_faults(model, HealingPolicy())
    kill_rng = froot.pyrandom("kill", system, index)
    live = sorted(proto.live_addresses())
    victims = sorted(kill_rng.sample(live, int(len(live) * 0.1)))
    if victims:
        sched = ChurnSchedule.crashes(
            victims,
            at=proto.engine.now,
            spread=2 * proto.config.gossip_period,
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

    subs = make_subscriptions("high", n_nodes, n_topics, seed)
    froot = SeedTree(fault_seed)
    proto = build_system(system, subs, seed=seed)
    now = proto.engine.now
    # Heal mid-cycle so the measurement after d cycles still falls
    # inside the partition window regardless of driver phase.
    model = Partition.halves(
        proto.live_addresses(),
        start=now,
        heal_at=now + (duration + 0.5) * proto.config.gossip_period,
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
    heal_cycles: int = 12,
    events: int = 150,
    seed: int = 0,
    fault_seed: Optional[int] = None,
) -> Sweep:
    """Hit ratio / delay / overhead under injected faults, repair running.

    Two swept axes, for Vitis, RVR and OPT alike:

    - **loss axis** — for each rate in ``loss_rates``: i.i.d. message
      loss (``repro.faults.MessageLoss``) plus a crash burst killing
      10% of the population (scheduled through
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
    fault_seed = seed if fault_seed is None else fault_seed
    sweep = Sweep("fault_sweep", reduce=flat_reduce)
    for i, rate in enumerate(loss_rates):
        for system in FAULT_SYSTEMS:
            sweep.trial(
                _fault_loss_trial, key=("loss", system, i), seed=seed,
                system=system, loss_rate=rate, index=i,
                n_nodes=n_nodes, n_topics=n_topics,
                heal_cycles=heal_cycles, events=events, fault_seed=fault_seed,
            )
    for d in partition_cycles:
        for system in FAULT_SYSTEMS:
            sweep.trial(
                _fault_partition_trial, key=("partition", system, d), seed=seed,
                system=system, duration=d,
                n_nodes=n_nodes, n_topics=n_topics,
                heal_cycles=heal_cycles, events=events, fault_seed=fault_seed,
            )
    return sweep


# ----------------------------------------------------------------------
# Scenario registry — one entry per CLI command, each naming the builder
# parameters the CLI multiplies by --scale.
# ----------------------------------------------------------------------
def _fault_sweep_adjust(kwargs: Dict[str, int]) -> Dict[str, int]:
    # The bucketed subscription generator needs n_topics divisible by
    # its bucket count (n_topics/50 for the "high" pattern).
    kwargs["n_topics"] = max(100, 50 * round(kwargs["n_topics"] / 50))
    return kwargs


_NODES = ("n_nodes", "n_topics")
_USERS = ("n_users", "sample_size")

SCENARIOS: Dict[str, Scenario] = {
    s.name: s
    for s in (
        Scenario("fig4", fig4_spec, _NODES),
        Scenario("fig5", fig5_spec, _NODES),
        Scenario("fig6", fig6_spec, _NODES),
        Scenario("fig7", fig7_spec, _NODES),
        Scenario("fig8", fig8_spec, ("n_users",)),
        Scenario("fig9", fig9_spec, ("n_users",)),
        Scenario("fig10", fig10_spec, _USERS),
        Scenario("fig11", fig11_spec, _USERS),
        Scenario("fig12", fig12_spec, ("pool",)),
        Scenario("ablation_depth", ablation_depth_spec, _NODES),
        Scenario("ablation_utility", ablation_utility_spec, _NODES),
        Scenario("ablation_sampler", ablation_sampler_spec, _NODES),
        Scenario("ablation_sw", ablation_sw_spec, _NODES),
        Scenario("ablation_proximity", ablation_proximity_spec, _NODES),
        Scenario("management_cost", management_cost_spec, _USERS),
        Scenario("fault_sweep", fault_sweep_spec, _NODES, adjust=_fault_sweep_adjust),
        Scenario("overload_sweep", overload_sweep_spec, _NODES, adjust=_fault_sweep_adjust),
        Scenario("chaos_sweep", chaos_sweep_spec, _NODES, adjust=_fault_sweep_adjust),
    )
}
