"""Local multi-process cluster launcher and fig4-style live measurement.

``python -m repro live cluster --procs 50 --events 40 --loss-rate 0.05``
spawns a 50-process loopback overlay (one ``live node`` subprocess per
member), waits for the ring to converge, drives the same
publish-and-grade measurement the fig4 experiments run in-sim, and
audits the merged causal trace end to end:

1. **Bootstrap** — the driver hosts the seed registry and the trace
   collector; every node process joins, streams its ``repro.obs`` JSONL
   to the collector, and gossips over real UDP (with receiver-side loss
   injection when requested).
2. **Convergence** — the driver polls ``topo`` snapshots over the seed
   connections until every successor pointer matches the true ring
   (:func:`repro.smallworld.ring.is_ring_converged`), the same predicate
   the simulator's warm-up uses.
3. **Measurement** — the commanded publishes are drawn by
   :func:`repro.experiments.runner.event_stream`, the generator
   :func:`~repro.experiments.runner.measure` consumes in-sim, so the
   identical workload can be re-run in-sim for a prediction band.
4. **Audit** — deliveries are read off the merged span trees; every
   shortfall is attributed by a total decision tree (dead process →
   ``dead_node``; a recorded retry-budget failure span → ``faulted_link``;
   otherwise ``no_path`` — the realized forwarding graph had no route),
   so ``trace-report --audit`` finds zero unexplained misses on the
   merged trace by construction.  The live hit ratio is then banded
   against an in-sim run of the same workload and seed.

The driver's exit code folds in every acceptance gate: join, ring
convergence, audit contract, prediction band, and clean subprocess
shutdown within the timeout.
"""

from __future__ import annotations

import asyncio
import json
import logging
import os
import sys
import time
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Set, Tuple

import numpy as np

from repro.core.config import VitisConfig
from repro.core.identifiers import IdSpace
from repro.core.utility import PublicationRates
from repro.experiments.runner import event_stream, measure
from repro.net.bootstrap import SeedService
from repro.net.collector import Collector
from repro.net.node import LiveWorkload
from repro.obs.audit import AuditReport, audit_trace
from repro.obs.spans import CAUSE_DEAD_NODE, CAUSE_FAULTED_LINK, CAUSE_NO_PATH
from repro.smallworld.ring import is_ring_converged

__all__ = ["ClusterResult", "run_cluster"]

log = logging.getLogger(__name__)


@dataclass
class _EventPlan:
    """One commanded publish and the ground truth to grade it against."""

    event: int
    topic: int
    publisher: int
    trace: str
    expected: Set[int]
    sent: bool = False


@dataclass
class ClusterResult:
    """Everything the driver graded, for the CLI and the tests."""

    n_procs: int
    n_events: int
    joined: bool = False
    converged: bool = False
    clean_shutdown: bool = False
    audit: Optional[AuditReport] = None
    expected_total: int = 0
    delivered_total: int = 0
    live_hit: float = 0.0
    sim_hit: Optional[float] = None
    hit_band: float = 0.0
    cause_totals: Counter = field(default_factory=Counter)
    trace_path: Optional[str] = None
    failures: List[str] = field(default_factory=list)
    #: Cluster-wide counters folded from every process's final metrics
    #: snapshot (same names as the in-sim traffic report plus live_*).
    metrics: Dict[str, float] = field(default_factory=dict)
    #: Where the live series store was persisted (``--series-out``).
    series_path: Optional[str] = None
    #: Frames the streaming pipeline saw / dropped, SWIM transitions seen.
    metrics_frames: int = 0
    dropped_frames: int = 0
    swim_transitions: int = 0

    @property
    def ok(self) -> bool:
        return not self.failures

    def summary_lines(self) -> List[str]:
        lines = [
            f"procs={self.n_procs} events={self.n_events} "
            f"joined={self.joined} converged={self.converged} "
            f"clean_shutdown={self.clean_shutdown}",
            f"delivered {self.delivered_total}/{self.expected_total} "
            f"(live hit ratio {self.live_hit:.3f})",
        ]
        if self.sim_hit is not None:
            lines.append(
                f"in-sim prediction {self.sim_hit:.3f} "
                f"(band -{self.hit_band:.2f}: "
                f"floor {max(0.0, self.sim_hit - self.hit_band):.3f})"
            )
        if self.audit is not None:
            lines.append(
                f"audit: {self.audit.n_events} events, "
                f"{self.audit.unexplained_total} unexplained, "
                f"{self.audit.n_incomplete} incomplete trees"
            )
        if self.cause_totals:
            causes = ", ".join(
                f"{c}={n}" for c, n in sorted(self.cause_totals.items())
            )
            lines.append(f"miss causes: {causes}")
        swim = {
            k: int(self.metrics[k])
            for k in ("probes_sent", "probe_misses", "suspicions",
                      "refutations", "confirmations", "detector_rejoins")
            if k in self.metrics
        }
        if swim:
            lines.append(
                "swim: " + ", ".join(f"{k}={v}" for k, v in swim.items())
            )
        if self.metrics_frames:
            lines.append(
                f"metrics: {self.metrics_frames} frames, "
                f"{self.dropped_frames} dropped, "
                f"{self.swim_transitions} swim transitions"
            )
        if self.series_path:
            lines.append(f"live series: {self.series_path}")
        if self.trace_path:
            lines.append(f"merged trace: {self.trace_path}")
        for f in self.failures:
            lines.append(f"FAIL: {f}")
        return lines


def _node_command(ns, seed_addr: Tuple[str, int], col_addr: Tuple[str, int],
                  workload: LiveWorkload) -> List[str]:
    return [
        sys.executable, "-m", "repro", "live", "node",
        "--seed-host", seed_addr[0], "--seed-port", str(seed_addr[1]),
        "--collector-host", col_addr[0], "--collector-port", str(col_addr[1]),
        "--bind-host", ns.bind_host,
        "--loss-rate", str(ns.loss_rate),
        "--gossip-period", str(ns.gossip_period),
        "--join-timeout", str(ns.join_timeout),
        "--metrics-interval", str(ns.metrics_interval),
        *workload.cli_args(),
    ]


def _node_env() -> Dict[str, str]:
    """Subprocess environment with the repro package importable."""
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parent.parent.parent)
    existing = env.get("PYTHONPATH")
    if existing:
        if src not in existing.split(os.pathsep):
            env["PYTHONPATH"] = src + os.pathsep + existing
    else:
        env["PYTHONPATH"] = src
    return env


def _predict_in_sim(workload: LiveWorkload, config: VitisConfig,
                    n_events: int, pub_seed: int) -> float:
    """The same workload and event stream, run through the in-sim
    deployed-mode protocol — the prediction the live hit ratio is banded
    against."""
    from repro.core.deployment import DeployedVitis

    dv = DeployedVitis(
        workload.subscriptions(), config=config, seed=workload.seed
    )
    for _ in range(12):
        dv.run(10 * config.gossip_period)
        if is_ring_converged(dv.ids_by_address(), dv.successor_map()):
            break
    # Let elections and relay trees settle past ring convergence.
    dv.run(10 * config.gossip_period)
    collector = measure(dv, n_events, seed=pub_seed)
    return collector.hit_ratio()


def _plan_events(workload: LiveWorkload, n_events: int,
                 pub_seed: int) -> List[_EventPlan]:
    """The publishes to command, each with its ground truth: the pairs
    ``measure(dv, n_events, seed=pub_seed)`` publishes in-sim."""
    sub_index: Dict[int, List[int]] = {}
    for a, s in enumerate(workload.subscriptions()):
        for t in s:
            sub_index.setdefault(t, []).append(a)
    if not sub_index:
        return []
    live = {t: sub_index[t] for t in sorted(sub_index)}
    rates = PublicationRates.uniform(max(1, workload.n_topics))
    rng = np.random.default_rng(pub_seed)
    return [
        _EventPlan(k, topic, pub, f"e{k}", set(live[topic]) - {pub})
        for k, (topic, pub) in enumerate(
            event_stream(rates, n_events, rng, live)
        )
    ]


def _attribute_misses(
    events: List[_EventPlan],
    delivered: Dict[str, Set[int]],
    failure_edges: Dict[str, Dict[int, int]],
    dead_procs: Set[int],
) -> List[Dict]:
    """Total attribution: every missed delivery gets a concrete cause.

    Decision tree (no fall-through to ``unexplained``): a dead process
    cannot deliver (``dead_node``); a recorded retry-budget exhaustion
    on an edge into the subscriber names the lossy edge
    (``faulted_link``); everything else means the realized forwarding
    graph — learned flood edges plus relay-tree state at publish time —
    had no route from the publisher to the subscriber (``no_path``).
    """
    misses: List[Dict] = []

    def miss(plan: _EventPlan, addr: int, cause: str,
             src: Optional[int] = None, dst: Optional[int] = None) -> None:
        rec: Dict = {
            "ev": "miss", "trace": plan.trace, "addr": addr,
            "cause": cause, "proc": -1,
        }
        if src is not None:
            rec["src"] = src
        if dst is not None:
            rec["dst"] = dst
        misses.append(rec)

    for plan in events:
        got = delivered.get(plan.trace, set())
        missing = sorted(plan.expected - got)
        if not missing:
            continue
        if not plan.sent or plan.publisher in dead_procs:
            for m in missing:
                miss(plan, m, CAUSE_DEAD_NODE, dst=plan.publisher)
            continue
        gave_up = failure_edges.get(plan.trace, {})
        for m in missing:
            if m in dead_procs:
                miss(plan, m, CAUSE_DEAD_NODE, dst=m)
            elif m in gave_up:
                miss(plan, m, CAUSE_FAULTED_LINK, src=gave_up[m], dst=m)
            else:
                miss(plan, m, CAUSE_NO_PATH)
    return misses


async def run_cluster(ns) -> ClusterResult:
    """Launch, converge, measure, audit.  Returns the graded result."""
    workload = LiveWorkload.from_ns(ns)
    workload = LiveWorkload(
        n_nodes=ns.procs, n_topics=workload.n_topics,
        n_buckets=workload.n_buckets,
        buckets_per_node=workload.buckets_per_node,
        topics_per_bucket=workload.topics_per_bucket,
        seed=workload.seed,
    )
    config = VitisConfig(gossip_period=ns.gossip_period)
    result = ClusterResult(n_procs=ns.procs, n_events=ns.events)
    space = IdSpace()
    ids = {a: space.node_id(a) for a in range(ns.procs)}

    seed = await SeedService.start(ns.bind_host)
    collector = await Collector.start(ns.bind_host)
    streaming = ns.metrics_interval > 0
    topo_reports: Dict[object, Dict[int, Dict]] = {}

    def on_node_message(addr: int, obj: Dict) -> None:
        if obj.get("op") == "topo_report":
            topo_reports.setdefault(obj.get("req"), {})[addr] = obj

    seed.on_node_message = on_node_message

    command = _node_command(ns, seed.local_addr, collector.local_addr, workload)
    env = _node_env()
    sink = None if ns.verbose else asyncio.subprocess.DEVNULL
    procs = []
    for _ in range(ns.procs):
        procs.append(await asyncio.create_subprocess_exec(
            *command, env=env, stdout=sink, stderr=sink,
        ))

    dead_procs: Set[int] = set()
    try:
        # --- join --------------------------------------------------------
        try:
            await seed.wait_for(ns.procs, timeout=ns.join_timeout)
            result.joined = True
        except TimeoutError as exc:
            result.failures.append(f"join: {exc}")
            return result

        # --- ring convergence -------------------------------------------
        loop = asyncio.get_running_loop()
        deadline = loop.time() + ns.converge_timeout
        req = 0
        while loop.time() < deadline:
            req += 1
            seed.broadcast({"op": "topo", "req": req})
            poll_end = min(deadline, loop.time() + 5 * ns.gossip_period)
            while (
                len(topo_reports.get(req, {})) < ns.procs
                and loop.time() < poll_end
            ):
                await asyncio.sleep(0.05)
            reports = topo_reports.get(req, {})
            if len(reports) == ns.procs:
                succ = {a: r.get("succ") for a, r in reports.items()}
                if is_ring_converged(ids, succ):
                    if streaming:
                        collector.store.note_ring(time.time(), 0, ns.procs)
                    result.converged = True
                    break
                if ns.verbose or streaming:
                    ring = sorted(ids, key=lambda a: ids[a])
                    true_succ = {
                        a: ring[(i + 1) % len(ring)]
                        for i, a in enumerate(ring)
                    }
                    wrong = sum(
                        1 for a in ring if succ.get(a) != true_succ[a]
                    )
                    if streaming:
                        collector.store.note_ring(time.time(), wrong, ns.procs)
                    if ns.verbose:
                        log.info("converge poll %d: %d/%d successors wrong",
                                 req, wrong, ns.procs)
            elif ns.verbose:
                log.info("converge poll %d: %d/%d topo reports",
                         req, len(reports), ns.procs)
            await asyncio.sleep(ns.gossip_period)
        if not result.converged:
            result.failures.append(
                f"ring did not converge within {ns.converge_timeout:.0f}s"
            )
        # Past ring convergence, give elections and relay installation a
        # few more periods before publishing (the in-sim prediction gets
        # the same post-convergence settling).
        await asyncio.sleep(10 * ns.gossip_period)

        # --- fig4-style measurement (the stream runner.measure draws) ----
        events = _plan_events(workload, ns.events, ns.pub_seed)
        expected_cum = 0
        for plan in events:
            plan.sent = seed.send_to(plan.publisher, {
                "op": "publish", "topic": plan.topic, "event": plan.event,
                "trace": plan.trace, "expected": len(plan.expected),
            })
            if streaming and plan.sent:
                expected_cum += len(plan.expected)
                collector.store.note_expected(time.time(), expected_cum)
            await asyncio.sleep(ns.event_gap)

        # --- settle, then shut the cluster down -------------------------
        await asyncio.sleep(ns.settle)
        seed.broadcast({"op": "shutdown"})
        clean = True
        for i, proc in enumerate(procs):
            try:
                await asyncio.wait_for(proc.wait(), timeout=ns.shutdown_timeout)
                if proc.returncode != 0:
                    clean = False
                    dead_procs.add(i)
                    result.failures.append(
                        f"proc exited with code {proc.returncode}"
                    )
            except asyncio.TimeoutError:
                clean = False
                proc.kill()
                await proc.wait()
                result.failures.append(
                    f"proc did not shut down within {ns.shutdown_timeout:.0f}s"
                )
        result.clean_shutdown = clean
        await collector.wait_quiescent(idle=0.3, timeout=10.0)
    finally:
        for proc in procs:
            if proc.returncode is None:
                proc.kill()
        await seed.close()
        await collector.close()

    # --- persist the live series store ----------------------------------
    store = collector.store
    result.metrics_frames = sum(s.frames for s in store.nodes.values())
    result.dropped_frames = store.dropped_frames
    result.swim_transitions = len(store.swim_events)
    if ns.series_out:
        with open(ns.series_out, "w", encoding="utf-8") as fh:
            json.dump(store.to_doc(), fh)
        result.series_path = ns.series_out

    # --- audit the merged trace -----------------------------------------
    delivered: Dict[str, Set[int]] = {}
    failure_edges: Dict[str, Dict[int, int]] = {}
    for r in collector.records:
        if r.get("ev") != "span" or "trace" not in r:
            continue
        if r.get("kind") == "deliver":
            delivered.setdefault(r["trace"], set()).add(r["dst"])
        elif r.get("status") is not None:
            failure_edges.setdefault(r["trace"], {})[r["dst"]] = r["src"]

    from repro.obs import Telemetry
    merged = Telemetry()
    collector.merge_into(merged)
    result.metrics = dict(merged.metrics.to_dict().get("counters", {}))

    misses = _attribute_misses(events, delivered, failure_edges, dead_procs)
    trace_path = ns.trace_out or "live_cluster_trace.jsonl"
    collector.write_trace(trace_path, extra=misses)
    result.trace_path = trace_path

    result.audit = audit_trace(collector.records + misses)
    result.cause_totals = result.audit.cause_totals()
    result.expected_total = sum(len(e.expected) for e in events)
    result.delivered_total = sum(
        len(delivered.get(e.trace, set()) & e.expected) for e in events
    )
    if result.expected_total:
        result.live_hit = result.delivered_total / result.expected_total
    if not result.audit.ok:
        result.failures.append(
            f"audit contract violated: "
            f"{result.audit.unexplained_total} unexplained misses, "
            f"{result.audit.n_incomplete} incomplete trees"
        )

    # --- in-sim prediction band -----------------------------------------
    if ns.predict:
        result.hit_band = ns.hit_band
        result.sim_hit = _predict_in_sim(
            workload, config, ns.events, ns.pub_seed
        )
        floor = max(0.0, result.sim_hit - ns.hit_band)
        if result.expected_total and result.live_hit < floor:
            result.failures.append(
                f"live hit ratio {result.live_hit:.3f} below in-sim "
                f"prediction band floor {floor:.3f}"
            )
    return result
