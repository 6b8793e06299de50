"""Child-side engine of the perf benchmark: run one workload, return a report.

One *run* is several *instances* of a workload, all from the same seed.
An instance is one set-up followed by its timed repetitions; the run
reports the median set-up time and the median repetition throughput, so a
burst of host noise on one repetition or one set-up does not move the
figure.  Each timed region starts with ``gc.collect()`` (the collector
itself stays on) and is clocked with ``perf_counter`` only; every time is
then scaled to a nominal host by :class:`HostSpeed`, because this host's
speed is not steady enough to compare wall clocks.

A traced run (``trace=True``) measures per-layer numbers instead: one
untraced instance gives the reference repetition time, a second instance
runs with every boundary of :data:`BOUNDARIES` wrapped by
:class:`tracing.Tracer`, and the difference is the tracing overhead.
"""

from __future__ import annotations

import gc
import hashlib
import json
import random
import resource
import statistics
from collections import Counter
from contextlib import contextmanager, nullcontext
from time import perf_counter, process_time
from typing import Any, Dict, List, Optional

from repro.core.deployment import DeployedVitis, DeployedVitisNode
from repro.core.node import VitisNode
from repro.core.protocol import VitisProtocol
from repro.experiments import runner
from repro.faults.models import MessageLoss
from repro.gossip.peer_sampling import PeerSamplingService
from repro.net import wire
from repro.net.transport import UdpTransport
from repro.obs import Telemetry
from repro.sim.engine import Engine
from repro.sim.metrics import MetricsCollector
from repro.sim.network import Network
from repro.smallworld.ring import is_ring_converged

from tracing import Tracer, aggregate
from workloads import WORKLOADS, Workload

__all__ = [
    "END_TO_END",
    "PER_LAYER",
    "REFERENCE_SECONDS",
    "HostSpeed",
    "Instance",
    "median_rate",
    "run_workload",
]

#: ``--seconds`` at which a workload runs exactly its declared ``reps``.
REFERENCE_SECONDS = 10

#: End-to-end metrics: name → unit.  Direction and bound live in BENCHMARK.json.
END_TO_END = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "peak_rss_mb": "MB",
    "hit_ratio": "ratio",
    "useful_msgs_pct": "%",
    "delay_hops": "hops",
}

#: Wrapped boundaries: span name → (owner, attribute).  ``measure``,
#: ``ring_check`` and the workload generators are spanned at their call
#: sites in the harness instead (the harness is their only caller).
BOUNDARIES = {
    "workloads.sample_topics": (runner, "sample_topics"),
    "gossip.ps_step": (PeerSamplingService, "step"),
    "core.node.tman_step": (VitisNode, "tman_step"),
    "core.node.heartbeat_step": (VitisNode, "heartbeat_step"),
    "core.node.join": (VitisNode, "join"),
    "core.gateway.election_round": (VitisProtocol, "election_round"),
    "core.relay.install_relays": (VitisProtocol, "install_relays"),
    "experiments.converge": (runner, "converge"),
    "faults.message_loss.drop": (MessageLoss, "drop"),
    "sim.engine.run": (Engine, "run"),
    "sim.network.send": (Network, "send"),
    "core.deployment.on_message": (DeployedVitisNode, "on_message"),
    "net.wire.encode": (wire, "encode"),
    "net.wire.decode": (wire, "decode"),
    "net.wire.encode_ack": (wire, "encode_ack"),
    "net.transport.send": (UdpTransport, "send"),
}

#: Per-layer metrics: name → unit.
PER_LAYER = {
    "workloads.twitter_trace.self_s": "s",
    "workloads.skype_trace.self_s": "s",
    "workloads.subscriptions.self_s": "s",
    "workloads.sample_topics.self_s": "s",
    "gossip.ps_step.calls": "count",
    "gossip.ps_step.self_s": "s",
    "core.node.tman_step.calls": "count",
    "core.node.tman_step.self_s": "s",
    "core.node.heartbeat_step.self_s": "s",
    "core.node.join.calls": "count",
    "core.node.join.self_s": "s",
    "sim.churn.joins": "count",
    "sim.churn.leaves": "count",
    "core.gateway.election_round.calls": "count",
    "core.gateway.election_round.self_s": "s",
    "core.relay.install_relays.calls": "count",
    "core.relay.install_relays.self_s": "s",
    "smallworld.lookup.calls": "count",
    "smallworld.lookup.self_s": "s",
    "smallworld.lookup.hops_mean": "hops",
    "smallworld.ring_check.self_s": "s",
    "core.dissemination.publish.calls": "count",
    "core.dissemination.publish.self_s": "s",
    "core.dissemination.publish_first_us": "us",
    "core.dissemination.publish_repeat_us": "us",
    "core.dissemination.first_touch_share": "ratio",
    "core.dissemination.msgs_per_event": "count",
    "core.dissemination.publish_faulty_us": "us",
    "faults.message_loss.drop.calls": "count",
    "faults.message_loss.drop.self_s": "s",
    "faults.injected": "count",
    "faults.retries": "count",
    "experiments.measure.self_s": "s",
    "experiments.converge.self_s": "s",
    "sim.engine.run.self_s": "s",
    "sim.network.send.calls": "count",
    "sim.network.send.self_s": "s",
    "sim.metrics.overhead_pct": "%",
    "core.deployment.on_message.calls": "count",
    "core.deployment.on_message.self_s": "s",
    "core.deployment.msgs_per_node_s": "1/s",
    "net.wire.encode.calls": "count",
    "net.wire.encode.self_s": "s",
    "net.wire.decode.calls": "count",
    "net.wire.decode.self_s": "s",
    "net.wire.encode_ack.self_s": "s",
    "net.wire.bytes_per_msg": "B",
    "net.transport.send.calls": "count",
    "net.transport.send.self_s": "s",
    "net.transport.other_s": "s",
    "net.transport.retransmits": "count",
    "net.transport.duplicates": "count",
    "net.transport.gave_up": "count",
    "net.transport.rtt_p50_us": "us",
    "net.transport.cpu_share": "ratio",
    "obs.telemetry_on.slowdown": "ratio",
    "bench.host_speed": "ratio",
    "bench.trace_overhead_pct": "%",
    "bench.unattributed_share": "ratio",
}


def median_rate(reps, clock: str = "seconds") -> float:
    """The median-of-K estimator: the median of the per-repetition rates
    ``ops / seconds`` (not total ops over total seconds, which a single
    slow repetition would drag).  ``clock="wall_s"`` reads the unscaled
    wall clock instead of the host-scaled one."""
    return statistics.median(r.ops / getattr(r, clock) for r in reps)


class _Cell:
    __slots__ = ("key", "peer", "tags")

    def __init__(self, key: int, peer: int) -> None:
        self.key = key
        self.peer = peer
        self.tags = {key, peer}


class HostSpeed:
    """How fast this host runs interpreter-bound, memory-touching Python
    *right now*: a fixed kernel (slot objects, set membership, dict
    updates, a sort) timed in slices around every timed region.

    The calibration host's speed swings by half for ten seconds at a time
    and drifts by a factor of two over twenty minutes (CALIBRATION.md), so
    wall time alone cannot be compared between two runs.  Every time
    measured in an instance — its set-up and each of its repetitions — is
    therefore scaled by the ``speed()`` of all the slices taken during
    that instance: seconds as they would read on a host that runs the
    kernel pass in ``NOMINAL_S``.  The kernel never changes, so two
    commits are compared like with like.  See README.md, "Host-speed
    reference".
    """

    #: Seconds of one kernel pass on the calibration host when it is quiet.
    NOMINAL_S = 0.0125
    #: Passes per slice; the slice reports their median, so a burst that
    #: hits a pass or two does not pass for a slow host.
    PASSES = 5

    def __init__(self) -> None:
        rng = random.Random(12345)
        # The working set decides how hard a neighbour's cache and memory
        # traffic hits the kernel.  At 50 000 cells it slowed down about
        # 1.6x as much as the workloads did (their log-log slope against
        # it was 0.44-0.79 over ten runs); at 3 000 it barely noticed.
        n = 25_000
        self._cells = [_Cell(i, rng.randrange(n)) for i in range(n)]
        self._order = [rng.randrange(n) for _ in range(30_000)]

    def slice(self) -> float:
        """Median seconds of one kernel pass, over ``PASSES`` passes."""
        cells, order = self._cells, self._order
        passes = []
        for _ in range(self.PASSES):
            t0 = perf_counter()
            seen: Dict[int, int] = {}
            trail = []
            for i in order:
                c = cells[i]
                if c.peer in c.tags:
                    seen[c.key] = seen.get(c.peer, 0) + 1
                trail.append(c.peer ^ c.key)
            trail.sort()
            passes.append(perf_counter() - t0)
        return statistics.median(passes)

    @classmethod
    def speed(cls, slices) -> float:
        """Host speed over the period ``slices`` sample, relative to the
        nominal host: below 1 when the host is slow.  The mean slice time
        is the estimate of mean time-per-work over the period."""
        return cls.NOMINAL_S / statistics.mean(slices)


class Repetition:
    """One timed region: what it did and how long it took.

    The region can be cut into stages with :meth:`checkpoint`; the clock
    stops while the host-speed kernel runs between them.
    """

    __slots__ = (
        "index", "ops", "failed", "wall_s", "seconds", "cpu_s",
        "_inst", "_t0", "_c0", "_gap",
    )

    def __init__(self, index: int, inst: "Instance") -> None:
        self.index = index
        self.ops = 0
        self.failed = 0
        #: Wall seconds inside the timed region, pauses excluded.
        self.wall_s = 0.0
        #: ``wall_s`` scaled to the nominal host (set when the instance ends).
        self.seconds = 0.0
        #: Process CPU seconds over the same stages.
        self.cpu_s = 0.0
        self._inst = inst
        self._t0: Optional[float] = None
        self._c0 = 0.0
        self._gap = None

    def start(self) -> None:
        self._inst.end_span(self._gap)
        self._gap = None
        self._c0 = process_time()
        self._t0 = perf_counter()

    def pause(self) -> None:
        """Stop the clock (a no-op when it is already stopped).  A traced
        run records the pause as a ``bench.paused`` span, so it is not
        mistaken for unattributed program time."""
        if self._t0 is not None:
            self.wall_s += perf_counter() - self._t0
            self.cpu_s += process_time() - self._c0
            self._t0 = None
            self._gap = self._inst.begin_span("bench.paused")

    def resume(self) -> None:
        """Sample the host, then restart the clock."""
        self._inst.host_slice()
        self.start()

    def checkpoint(self) -> None:
        """Between two stages of a long repetition: sample the host with
        the clock stopped, so it is watched throughout and not only at
        the ends."""
        self.pause()
        self.resume()


class Instance:
    """One set-up plus its timed repetitions — what a workload function
    is handed.  Holds the seed-derived sizes, the clocks, the quality
    collector and the deterministic outputs that feed ``sim_sha256``."""

    def __init__(
        self,
        workload: Workload,
        seed: int,
        reps: int,
        quick: bool,
        host: HostSpeed,
        tracer: Optional[Tracer] = None,
        telemetry=None,
    ) -> None:
        self.host = host
        #: Host-speed slices in the order taken (seconds per kernel pass).
        self.slices: List[float] = []
        self.seed = seed
        self.reps = reps
        self.sizes = workload.quick if quick else workload.full
        self.tracer = tracer
        #: A live ``Telemetry`` for the obs price-list instance, else None.
        self.telemetry = telemetry
        #: Set-up seconds, scaled to the nominal host, and as measured.
        self.setup_s: Optional[float] = None
        self.setup_wall_s: Optional[float] = None
        self.repetitions: List[Repetition] = []
        #: Dissemination records behind the protocol-quality metrics.
        self.collector = MetricsCollector()
        #: Set by workloads whose quality does not come from a collector.
        self.quality: Optional[Dict[str, float]] = None
        #: Counts a workload reads off the program for the per-layer table.
        self.counts: Counter = Counter()
        self.outputs: List[Any] = []
        self.mismatch: List[str] = []
        self._first: Dict[str, str] = {}
        self.host_slice()
        self._t_start = perf_counter()

    # ------------------------------------------------------------------
    # Clocks
    # ------------------------------------------------------------------
    def host_slice(self) -> None:
        """Time one slice of the host-speed kernel."""
        with self.span("bench.host_slice"):
            self.slices.append(self.host.slice())

    def setup_done(self) -> None:
        """Everything before the first timed repetition is set-up."""
        self.setup_wall_s = perf_counter() - self._t_start
        self.host_slice()

    def scale_to_nominal_host(self) -> None:
        """Turn the instance's wall times into nominal-host seconds."""
        speed = self.host.speed(self.slices)
        self.setup_s = self.setup_wall_s * speed
        for rep in self.repetitions:
            rep.seconds = rep.wall_s * speed

    @contextmanager
    def timed(self):
        rep = Repetition(len(self.repetitions), self)
        tracer = self.tracer
        self.host_slice()
        gc.collect()
        if tracer is not None:
            tracer.rep = rep.index
        root = tracer.span("bench.repetition") if tracer is not None else nullcontext()
        try:
            with root:
                rep.start()
                yield rep
                rep.pause()
                self.host_slice()
                self.end_span(rep._gap)
        finally:
            if tracer is not None:
                tracer.rep = None
            self.repetitions.append(rep)

    def span(self, name: str):
        return self.tracer.span(name) if self.tracer is not None else nullcontext()

    def begin_span(self, name: str):
        """Open a span that :meth:`end_span` closes (None when untraced)."""
        return self.tracer.begin(name) if self.tracer is not None else None

    def end_span(self, handle) -> None:
        if handle is not None:
            self.tracer.end(handle)

    # ------------------------------------------------------------------
    # Calls into the program that the harness itself makes
    # ------------------------------------------------------------------
    def measure(self, protocol, n_events: int, **kwargs) -> MetricsCollector:
        with self.span("experiments.measure"):
            return runner.measure(protocol, n_events, **kwargs)

    def ring_check(self, system) -> bool:
        with self.span("smallworld.ring_check"):
            return is_ring_converged(system.ids_by_address(), system.successor_map())

    # ------------------------------------------------------------------
    # Deterministic outputs
    # ------------------------------------------------------------------
    def output(self, key: str, value: Any) -> None:
        self.outputs.append([key, value])

    def identical(self, key: str, value: Any, collector=None) -> None:
        """Record the output of an identical-state repetition: the first
        one is kept (and its records feed the quality metrics), every
        later one must equal it."""
        canon = _canonical(value)
        first = self._first.get(key)
        if first is None:
            self._first[key] = canon
            self.output(key, value)
            if collector is not None:
                self.collector.extend(collector.records)
        elif first != canon:
            self.mismatch.append(f"{key}: repetitions from identical state disagree")

    def digest(self) -> str:
        return hashlib.sha256(_canonical(self.outputs).encode()).hexdigest()

    def quality_metrics(self) -> Dict[str, float]:
        if self.quality is not None:
            return self.quality
        s = self.collector.summary()
        return {
            "hit_ratio": s["hit_ratio"],
            "overhead_pct": s["traffic_overhead_pct"],
            "delay_hops": s["mean_delay_hops"],
        }


def _canonical(value: Any) -> str:
    return json.dumps(value, sort_keys=True, separators=(",", ":"))


# ----------------------------------------------------------------------
# Tracing one instance
# ----------------------------------------------------------------------
class _LayerStats:
    """Counts read off results at wrapped boundaries (trace runs only)."""

    def __init__(self, tracer: Tracer) -> None:
        self.tracer = tracer
        self.lookups = 0
        self.lookup_hops = 0
        self.first_s = 0.0
        self.first_n = 0
        self.repeat_s = 0.0
        self.repeat_n = 0
        self.messages = 0
        self._seen = set()
        self._seen_rep = None

    def on_lookup(self, result, seconds, args) -> None:
        self.lookups += 1
        self.lookup_hops += result.hops

    def on_publish(self, record, seconds, args) -> None:
        # A repetition of publish_static starts from cold caches, so
        # "first touch" is per repetition.
        if self.tracer.rep != self._seen_rep:
            self._seen_rep = self.tracer.rep
            self._seen.clear()
        key = (args[1], args[2])  # (topic, publisher)
        if key in self._seen:
            self.repeat_s += seconds
            self.repeat_n += 1
        else:
            self._seen.add(key)
            self.first_s += seconds
            self.first_n += 1
        self.messages += record.total_messages


def _install(tracer: Tracer, stats: _LayerStats) -> None:
    for name, (owner, attr) in BOUNDARIES.items():
        tracer.wrap(owner, attr, name)
    for cls in (VitisProtocol, DeployedVitis):
        tracer.wrap(cls, "lookup", "smallworld.lookup", on_exit=stats.on_lookup)
        tracer.wrap(cls, "publish", "core.dissemination.publish", on_exit=stats.on_publish)


# ----------------------------------------------------------------------
# Running
# ----------------------------------------------------------------------
def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _reps_for(workload: Workload, seconds: float, quick: bool) -> int:
    if quick:
        return min(workload.reps, 2)
    return max(1, round(workload.reps * seconds / REFERENCE_SECONDS))


def _run_instance(workload, seed, reps, quick, host, tracer=None, telemetry=None) -> Instance:
    inst = Instance(workload, seed, reps, quick, host, tracer, telemetry)
    workload.instance(inst)
    if inst.setup_wall_s is None or len(inst.repetitions) != reps:
        raise RuntimeError(f"{workload.name}: workload broke the instance protocol")
    inst.scale_to_nominal_host()
    return inst


def run_workload(
    name: str, seed: int, seconds: float, trace: bool, quick: bool = False
) -> Dict[str, Any]:
    """Run one workload and return its report (see ``run.py`` for the
    fields); ``report["metrics"]`` holds the end-to-end metrics, or the
    per-layer ones when ``trace`` is set."""
    workload = WORKLOADS[name]
    reps = _reps_for(workload, seconds, quick)
    n_instances = 1 if quick else workload.instances

    rss_before = _peak_rss_mb()
    host = HostSpeed()
    # The kernel's data lives as long as the process: its share of the
    # peak is the harness's, not the program's.
    ballast_mb = _peak_rss_mb() - rss_before
    tracer = None
    spans = []
    if not trace:
        instances = [
            _run_instance(workload, seed, reps, quick, host) for _ in range(n_instances)
        ]
        layer = None
    else:
        reference = _run_instance(workload, seed, reps, quick, host)
        tracer = Tracer()
        stats = _LayerStats(tracer)
        _install(tracer, stats)
        try:
            traced = _run_instance(workload, seed, reps, quick, host, tracer=tracer)
        finally:
            tracer.restore()
        instances = [reference, traced]
        spans = tracer.closed_spans()
        slowdown = 0.0
        if name == "publish_static":
            # The obs price list: the same overlay and events with a
            # live Telemetry() instead of obs.NULL.
            priced = _run_instance(workload, seed, reps, quick, host, telemetry=Telemetry())
            instances.append(priced)
            slowdown = median_rate(reference.repetitions) / median_rate(priced.repetitions)
        layer = _per_layer(reference, traced, spans, stats, slowdown)

    first = instances[0]
    problems = [m for inst in instances for m in inst.mismatch]
    if any(inst.digest() != first.digest() for inst in instances[1:]):
        problems.append("instances built from the same seed disagree")
    all_reps = [r for inst in instances for r in inst.repetitions]
    attempted = sum(r.ops for r in all_reps)
    failed = sum(r.failed for r in all_reps)
    quality = first.quality_metrics()

    end_to_end = {
        "setup_s": statistics.median(inst.setup_s for inst in instances),
        "ops_per_s": median_rate(all_reps),
        "peak_rss_mb": _peak_rss_mb() - ballast_mb,
        "hit_ratio": quality["hit_ratio"],
        "useful_msgs_pct": 100.0 - quality["overhead_pct"],
        "delay_hops": quality["delay_hops"],
    }
    if layer is not None:
        layer["sim.metrics.overhead_pct"] = quality["overhead_pct"]
    table, units = (layer, PER_LAYER) if trace else (end_to_end, END_TO_END)
    return {
        "workload": name,
        "op": workload.op,
        "seed": seed,
        "trace": trace,
        "quick": quick,
        "correct": not problems and failed == 0,
        "problems": problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": table[k], "unit": unit} for k, unit in units.items()},
        "end_to_end": end_to_end,
        "sim_sha256": first.digest(),
        "instances": len(instances),
        "reps_per_instance": reps,
        # As measured, before scaling to the nominal host.
        "wall": {
            "setup_s": statistics.median(inst.setup_wall_s for inst in instances),
            "ops_per_s": median_rate(all_reps, clock="wall_s"),
            "host_speed": HostSpeed.speed([s for inst in instances for s in inst.slices]),
        },
        "rep_seconds": [[r.seconds for r in inst.repetitions] for inst in instances],
        "setup_seconds": [inst.setup_s for inst in instances],
        "spans": spans,
        # Self seconds per boundary inside the timed repetitions only
        # (the per-layer metrics cover the whole instance, set-up included).
        "timed_self_s": {
            name: agg["self_s"] for name, agg in aggregate(spans, timed_only=True).items()
        },
    }


def _per_layer(reference, traced, spans, stats, slowdown) -> Dict[str, float]:
    """The per-layer table of one traced instance.

    ``self_s`` / ``calls`` cover the whole traced instance, set-up
    included (several layers only run there); ``bench.*`` and
    ``net.transport.other_s`` cover its timed repetitions only.
    """
    out = dict.fromkeys(PER_LAYER, 0.0)
    for span_name, agg in aggregate(spans).items():
        for stat in ("calls", "self_s"):
            key = f"{span_name}.{stat}"
            if key in out:
                out[key] = agg[stat]
    for key, value in traced.counts.items():
        if key in out:
            out[key] = value

    timed = aggregate(spans, timed_only=True)
    roots = timed.get("bench.repetition", {"self_s": 0.0, "total_s": 0.0})
    # The timed wall: the repetitions' spans minus their pauses.
    timed_wall = roots["total_s"] - timed.get("bench.paused", {"total_s": 0.0})["total_s"]
    if timed_wall:
        out["bench.unattributed_share"] = roots["self_s"] / timed_wall
    ref_s = statistics.median(r.seconds for r in reference.repetitions)
    traced_s = statistics.median(r.seconds for r in traced.repetitions)
    out["bench.trace_overhead_pct"] = 100.0 * (traced_s - ref_s) / ref_s
    out["obs.telemetry_on.slowdown"] = slowdown
    out["bench.host_speed"] = HostSpeed.speed(traced.slices)

    if stats.lookups:
        out["smallworld.lookup.hops_mean"] = stats.lookup_hops / stats.lookups
    published = stats.first_n + stats.repeat_n
    if published:
        out["core.dissemination.first_touch_share"] = stats.first_n / published
        out["core.dissemination.msgs_per_event"] = stats.messages / published
        if stats.first_n:
            out["core.dissemination.publish_first_us"] = 1e6 * stats.first_s / stats.first_n
        if stats.repeat_n:
            out["core.dissemination.publish_repeat_us"] = 1e6 * stats.repeat_s / stats.repeat_n
        if traced.counts.get("faults.injected"):
            out["core.dissemination.publish_faulty_us"] = (
                1e6 * (stats.first_s + stats.repeat_s) / published
            )
    nodes, sim_s = traced.counts.get("deployed.nodes"), traced.counts.get("deployed.sim_seconds")
    if nodes and sim_s:
        delivered = sum(r.ops for r in traced.repetitions)
        out["core.deployment.msgs_per_node_s"] = delivered / (nodes * sim_s)
    if "net.transport.send" in timed:
        # Loop, socket and receive path: the timed wall no wrapped span owns.
        out["net.transport.other_s"] = roots["self_s"]
        out["net.transport.cpu_share"] = sum(
            r.cpu_s for r in reference.repetitions
        ) / sum(r.wall_s for r in reference.repetitions)
    return out
