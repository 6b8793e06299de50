"""repro.net.cluster: the commanded event stream, miss attribution and
the live mini-cluster end to end."""

import asyncio
import json

from repro.cli import build_parser
from repro.core.deployment import DeployedVitis
from repro.experiments.runner import measure
from repro.net.cluster import (
    _EventPlan, _attribute_misses, _plan_events, run_cluster,
)
from repro.net.node import LiveWorkload
from repro.obs.spans import CAUSE_DEAD_NODE, CAUSE_FAULTED_LINK, CAUSE_NO_PATH


def _plan(trace="e0", pub=0, expected=(1, 2, 3), sent=True):
    return _EventPlan(event=0, topic=5, publisher=pub, trace=trace,
                      expected=set(expected), sent=sent)


def test_commanded_events_are_the_stream_measure_publishes_in_sim():
    """The prediction band compares one workload with itself: same seed ⇒
    the publishes the driver commands are the publishes ``measure``
    makes on the in-sim twin, pair for pair."""
    workload = LiveWorkload(n_nodes=8, n_topics=24, n_buckets=6,
                            buckets_per_node=2, topics_per_bucket=2, seed=3)
    subs = workload.subscriptions()

    class Pairs(list):
        def add(self, rec):
            self.append((rec.topic, rec.publisher))

    in_sim = measure(DeployedVitis(subs, seed=workload.seed), 40, seed=5,
                     collector=Pairs())
    plans = _plan_events(workload, 40, 5)
    assert [(p.topic, p.publisher) for p in plans] == in_sim
    assert len(set(in_sim)) > 10  # a stream, not one pair
    assert [(p.event, p.trace) for p in plans] == [
        (k, f"e{k}") for k in range(40)]
    for p in plans:
        assert p.topic in subs[p.publisher]
        assert p.expected == {
            a for a, s in enumerate(subs) if p.topic in s} - {p.publisher}
        assert not p.sent


def test_attribution_is_total_and_prefers_concrete_causes():
    plans = [_plan()]
    delivered = {"e0": {1}}
    failure_edges = {"e0": {3: 7}}  # node 7 exhausted retries toward 3
    misses = _attribute_misses(plans, delivered, failure_edges, dead_procs={2})
    by_addr = {m["addr"]: m for m in misses}
    assert set(by_addr) == {2, 3}
    assert by_addr[2]["cause"] == CAUSE_DEAD_NODE
    assert by_addr[3]["cause"] == CAUSE_FAULTED_LINK
    assert by_addr[3]["src"] == 7 and by_addr[3]["dst"] == 3


def test_attribution_dead_publisher_and_no_path_fallback():
    # Publisher never got the command: the whole expected set is dead_node.
    dead_pub = _plan(trace="e1", pub=9, sent=False)
    # No failure span, no dead process: the realized graph had no route.
    silent = _plan(trace="e2")
    misses = _attribute_misses(
        [dead_pub, silent], delivered={"e2": {1, 2}},
        failure_edges={}, dead_procs=set(),
    )
    e1 = [m for m in misses if m["trace"] == "e1"]
    e2 = [m for m in misses if m["trace"] == "e2"]
    assert len(e1) == 3 and all(m["cause"] == CAUSE_DEAD_NODE for m in e1)
    assert all(m["dst"] == 9 for m in e1)
    assert [m["addr"] for m in e2] == [3]
    assert e2[0]["cause"] == CAUSE_NO_PATH
    # Fully delivered events contribute nothing.
    assert all(m["trace"] in ("e1", "e2") for m in misses)


def test_mini_cluster_end_to_end(tmp_path):
    """6 loopback processes under 5% UDP loss: converge, measure, audit.

    This is the full live path — seed bootstrap, UDP gossip, SWIM,
    fig4-style measurement, collector merge, total miss attribution —
    and the same gates the `live` contract entry enforces, at pytest scale.
    """
    trace_out = tmp_path / "mini_trace.jsonl"
    series_out = tmp_path / "mini_series.json"
    ns = build_parser().parse_args([
        "live", "cluster", "--procs", "6", "--events", "8",
        "--loss-rate", "0.05", "--gossip-period", "0.2",
        "--converge-timeout", "60", "--settle", "2.5",
        "--trace-out", str(trace_out),
        "--metrics-interval", "0.5", "--series-out", str(series_out),
    ])
    ns.n_nodes = ns.procs
    result = asyncio.run(run_cluster(ns))
    assert result.failures == []
    assert result.joined and result.converged and result.clean_shutdown
    assert result.audit is not None and result.audit.ok
    assert result.audit.unexplained_total == 0
    assert result.sim_hit is not None
    assert result.live_hit >= max(0.0, result.sim_hit - ns.hit_band)
    # The merged trace is a valid proc-tagged JSONL feed for trace-report.
    records = [json.loads(line) for line in trace_out.read_text().splitlines()]
    assert any(r.get("ev") == "span" and r.get("kind") == "publish"
               for r in records)
    assert all("proc" in r for r in records if r.get("ev") == "span")
    # Streaming was on: every node's frames reached the store, yet the
    # merged trace stays frame-free (snapshot streaming is trace-inert).
    assert result.metrics_frames >= ns.procs
    assert not any(r.get("ev") == "metrics_delta" for r in records)
    from repro.obs.registry import MetricsRegistry
    from repro.obs.report import live_report

    doc = json.loads(series_out.read_text())
    assert len(doc["nodes"]) == ns.procs
    # Cumulative totals rebuilt from deltas are live traffic, not zeros.
    sent = 0.0
    for series in doc["nodes"].values():
        totals = MetricsRegistry()
        totals.merge(series["totals"])
        sent += totals.counter("live_sent_total").value
    assert sent > 0
    # Every SWIM transition in the merged trace is in the series too —
    # the post-run timeline and the live view agree record for record.
    traced = [(r["proc"], r["peer"], r["prev"], r["state"])
              for r in records if r.get("ev") == "swim"]
    stored = [(proc, peer, prev, state)
              for _t, proc, peer, prev, state in doc["swim"]]
    assert sorted(traced) == sorted(stored)
    # The persisted series renders as a live-report health timeline.
    text = live_report(doc)
    assert "per-node streams" in text
    assert "ring convergence" in text
