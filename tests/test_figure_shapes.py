"""The paper's figures and DESIGN.md's ablations keep their shape.

Each test reads one committed ``results/<name>.csv`` — the CLI's default
configuration, which the ``results`` entry of ``tools/contract.py``
regenerates and compares byte for byte — and asserts the qualitative
claim the paper (or DESIGN.md §7–8) makes about it.  The figures run
once, in that entry; nothing here simulates.
"""

import numpy as np

from repro.experiments.scenarios import FLASH_CROWD_AT
from tests.test_experiments_tables import _rows


def _table(name):
    """``results/<name>.csv``'s rows, every number a float."""
    return [{k: _value(v) for k, v in r.items()} for r in _rows(name)]


def _value(text):
    try:
        return float(text)
    except ValueError:
        return text


def _samples(rows, kind=None):
    """The degree of every node of a ``degree,frequency`` histogram."""
    return np.asarray([r["degree"] for r in rows if kind in (None, r.get("kind"))
                       for _ in range(int(r["frequency"]))])


def test_fig4_friends_vs_sw():
    """Vitis's overhead falls steeply as friend links replace sw links
    (−88% on high correlation at 12 friends); RVR is a flat reference;
    Vitis-random stays well under RVR; hit ratio 100% everywhere."""
    rows = _table("fig4")
    vitis = {(r["pattern"], r["n_friends"]): r["traffic_overhead_pct"]
             for r in rows if r["system"] == "vitis"}
    rvr = next(r for r in rows if r["system"] == "rvr")["traffic_overhead_pct"]

    assert all(r["hit_ratio"] >= 0.999 for r in rows)
    assert vitis[("high", 12)] < 0.35 * vitis[("high", 0)]
    assert vitis[("high", 12)] < 0.3 * rvr
    assert vitis[("random", 12)] < 0.65 * rvr


def test_fig5_overhead_distribution():
    """Vitis puts more nodes in the lowest-overhead bin than RVR and
    empties the >20% bins to under a third of RVR's share."""
    rows = _table("fig5")

    def lowest(system, pattern):
        return next(r["fraction_of_nodes"] for r in rows
                    if r["system"] == system and r["pattern"] == pattern and r["bin_lo"] == 0)

    def share_above(system, pattern, threshold):
        return sum(r["fraction_of_nodes"] for r in rows
                   if r["system"] == system and r["pattern"] == pattern
                   and r["bin_lo"] >= threshold)

    assert lowest("vitis", "high") > lowest("rvr", "high")
    assert share_above("vitis", "high", 20) < share_above("rvr", "high", 20) / 3
    # Same ordering on the random pattern, where the gap is narrower.
    assert share_above("vitis", "random", 20) < share_above("rvr", "random", 20)


def test_fig6_routing_table_size():
    """Bigger tables help both systems; Vitis stays below RVR at every
    table size; everyone delivers."""
    rows = _table("fig6")
    vitis = {r["rt_size"]: r for r in rows if r["system"] == "vitis" and r["pattern"] == "high"}
    rvr = {r["rt_size"]: r for r in rows if r["system"] == "rvr"}
    smallest, largest = min(rvr), max(rvr)

    assert vitis[largest]["traffic_overhead_pct"] <= vitis[smallest]["traffic_overhead_pct"]
    assert rvr[largest]["mean_delay_hops"] <= rvr[smallest]["mean_delay_hops"]
    assert sorted(vitis) == sorted(rvr) and len(rvr) == 5
    for rt in rvr:
        assert vitis[rt]["traffic_overhead_pct"] < rvr[rt]["traffic_overhead_pct"]
    assert all(r["hit_ratio"] >= 0.999 for r in rows)


def test_fig7_publication_rate():
    """As α grows the random-subscription curve approaches the
    high-correlation one, and skew helps the random pattern outright."""
    rows = _table("fig7")
    vitis = {(r["pattern"], r["alpha"]): r["traffic_overhead_pct"]
             for r in rows if r["system"] == "vitis"}

    gap_flat = vitis[("random", 0.3)] - vitis[("high", 0.3)]
    gap_skew = vitis[("random", 3.0)] - vitis[("high", 3.0)]
    assert gap_skew < gap_flat
    assert vitis[("random", 3.0)] < vitis[("random", 0.3)]
    assert all(r["hit_ratio"] >= 0.999 for r in rows)


def test_fig8_twitter_degree_distribution():
    """Every user appears once in the in-degree histogram, whose tail
    reaches far above the mean."""
    rows = _table("fig8")
    users = next(r["value"] for r in _table("fig9") if r["statistic"] == "users")
    in_degrees = _samples(rows, "in")

    assert len(in_degrees) == users
    assert in_degrees.max() > 10 * in_degrees.mean()


def test_fig9_twitter_summary():
    """The paper's fit: α ≈ 1.65 for both degree distributions."""
    summary = {r["statistic"]: r["value"] for r in _table("fig9")}

    assert abs(summary["alpha_in"] - 1.65) < 0.25
    assert abs(summary["alpha_out"] - 1.65) < 0.25
    assert summary["relations"] > summary["users"]


def test_fig10_twitter_sweep():
    """Vitis and RVR hit 100% at every size; bounded OPT misses
    subscribers and improves with degree; OPT's overhead is zero,
    Vitis's far below RVR's; Vitis is the fastest."""
    by = {(r["system"], r["rt_size"]): r for r in _table("fig10")}
    sizes = sorted({rt for _, rt in by})

    assert sizes == [15, 25, 35]
    for rt in sizes:
        vitis, rvr, opt = by[("vitis", rt)], by[("rvr", rt)], by[("opt", rt)]
        assert vitis["hit_ratio"] >= 0.99 and rvr["hit_ratio"] >= 0.99
        assert opt["hit_ratio"] < 0.999
        assert opt["traffic_overhead_pct"] == 0.0
        assert vitis["traffic_overhead_pct"] < 0.7 * rvr["traffic_overhead_pct"]
        assert vitis["mean_delay_hops"] < rvr["mean_delay_hops"]
    assert by[("opt", 35)]["hit_ratio"] > by[("opt", 15)]["hit_ratio"]


def test_fig11_opt_degree_distribution():
    """Unbounded OPT forces a large share of nodes past degree 15, with
    a heavy tail."""
    degrees = _samples(_table("fig11"))

    assert (degrees > 15).mean() > 0.2
    assert degrees.max() > 3 * degrees.mean()


def test_fig12_churn():
    """Both systems ride out moderate churn; through the flash crowd
    Vitis degrades less than RVR and stays near-perfect; Vitis's
    overhead stays below RVR's throughout; the population spikes."""
    rows = _table("fig12")

    def series(system, key):
        return {r["time"]: r[key] for r in rows if r["system"] == system and r["events"] > 0}

    vitis_hit, rvr_hit = series("vitis", "hit_ratio"), series("rvr", "hit_ratio")
    calm = [t for t in vitis_hit if 60 <= t < FLASH_CROWD_AT]
    crowd = [t for t in vitis_hit if FLASH_CROWD_AT < t <= FLASH_CROWD_AT + 60]
    assert calm and crowd

    assert min(vitis_hit[t] for t in calm) > 0.95
    assert min(rvr_hit[t] for t in calm) > 0.85
    vitis_worst = min(vitis_hit[t] for t in crowd)
    assert vitis_worst >= min(rvr_hit[t] for t in crowd) - 0.02
    assert vitis_worst > 0.93
    assert min(vitis_hit.values()) >= min(rvr_hit.values())

    v_over = series("vitis", "traffic_overhead_pct")
    r_over = series("rvr", "traffic_overhead_pct")
    assert all(v_over[t] < r_over[t] for t in set(v_over) & set(r_over))

    live = series("vitis", "live_nodes")
    assert max(live[t] for t in crowd) > 1.3 * live[min(live)]


def test_ablation_gateway_depth():
    """A tighter depth threshold multiplies gateways and relay paths;
    delivery never suffers."""
    rows = _table("ablation_depth")
    by = {r["gateway_depth"]: r for r in rows}

    assert by[1]["mean_gateways_per_topic"] > by[5]["mean_gateways_per_topic"]
    assert by[1]["relay_paths"] >= by[5]["relay_paths"]
    assert all(r["hit_ratio"] >= 0.999 for r in rows)


def test_ablation_utility_weighting():
    """Rate weighting does not hurt the rate-weighted overhead under
    skewed publication."""
    rows = _table("ablation_utility")
    by = {r["rate_weighted"]: r["traffic_overhead_pct"] for r in rows}

    assert by["True"] <= 1.1 * by["False"]
    assert all(r["hit_ratio"] >= 0.999 for r in rows)


def test_ablation_peer_sampler():
    """Any gossip sampling service works: Newscast and Cyclon deliver
    alike at close overheads."""
    by = {r["sampler"]: r for r in _table("ablation_sampler")}
    a = by["newscast"]["traffic_overhead_pct"]
    b = by["cyclon"]["traffic_overhead_pct"]

    assert by["newscast"]["hit_ratio"] >= 0.999 and by["cyclon"]["hit_ratio"] >= 0.999
    assert abs(a - b) < 0.5 * max(a, b) + 2.0


def test_ablation_sw_links():
    """More sw links make greedy lookups cheaper at the price of traffic
    overhead; lookups stay consistent and within the O(log²N / k)
    yardstick."""
    rows = _table("ablation_sw")
    by = {r["n_sw_links"]: r for r in rows}
    hops = [by[k]["mean_lookup_hops"] for k in (1, 3, 7, 13)]

    assert hops[-1] < hops[0]
    assert all(a >= b - 0.5 for a, b in zip(hops, hops[1:]))
    assert by[13]["traffic_overhead_pct"] > by[1]["traffic_overhead_pct"]
    for r in rows:
        assert r["consistency_rate"] == 1.0
        assert r["mean_lookup_hops"] <= 3 * r["bound_log2N_over_k"]


def test_ablation_proximity():
    """Moderate proximity blending cuts the physical cost at full
    delivery; heavy blending erodes clustering and the overhead climbs."""
    by = {r["beta"]: r for r in _table("ablation_proximity")}

    assert by[0.2]["mean_physical_cost"] < by[0.0]["mean_physical_cost"]
    assert by[0.2]["hit_ratio"] >= 0.999
    assert by[0.5]["traffic_overhead_pct"] >= by[0.0]["traffic_overhead_pct"]


def test_management_cost():
    """Bounded-degree systems maintain at most a table's worth of links;
    unbounded OPT's tail blows past any bound and costs more messages."""
    by = {r["system"]: r for r in _table("management_cost")}

    for system in ("vitis", "rvr", "opt-bounded"):
        assert by[system]["max_links_per_node"] <= 15
    assert by["opt-unbounded"]["max_links_per_node"] > 2 * 15
    assert by["opt-unbounded"]["per_node_msgs_per_cycle"] \
        > by["opt-bounded"]["per_node_msgs_per_cycle"]
