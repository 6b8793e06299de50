"""One live Vitis node process.

Hosts a single :class:`~repro.core.deployment.DeployedVitisNode` on real
infrastructure instead of the simulator.  The node — T-Man exchanges,
Newscast sampling, gateway election, relay maintenance, and the
notification flood with its causal spans — is the very class the
simulator runs; this module is only its other host:

- :class:`LiveNodeHost` — the host surface of ``repro.core.deployment``
  on process-local reality: wall clock, the asyncio UDP transport
  (:mod:`repro.net.transport`), :class:`~repro.net.timers.AsyncPeriodicTask`
  timers, liveness from the registry and the per-observer SWIM detector
  (:mod:`repro.net.liveness`), profiles from the workload derived from
  the shared seed, and process-unique span ids (``n<addr>x<k>``, so the
  collector-merged trace reconstructs exactly like a single-process one)
  — and the wiring around the node: seed registry pushes and driver
  commands (:mod:`repro.net.bootstrap`), detector hooks, the collector
  stream and its metrics frames;
- :func:`run_node` — the async process entry: bind UDP on an ephemeral
  port, join via the seed, stream ``repro.obs`` JSONL to the collector
  (proc-tagged at source), run protocol + detector timers, answer the
  driver's publish/topo/shutdown commands, and emit one final
  ``metrics_snapshot`` record on the way out.

All subscription profiles are derived deterministically in every process
from the shared workload seed (``bucket_subscriptions``), matching the
paper's assumption that exchanged descriptors carry profile summaries —
the registry only hands out addresses and endpoints.
"""

from __future__ import annotations

import asyncio
import logging
import random
import socket
import time
from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Optional, Set

from repro.core.config import VitisConfig
from repro.core.deployment import DeployedVitisNode
from repro.core.identifiers import IdSpace
from repro.core.profile import NodeProfile
from repro.core.utility import PublicationRates, UtilityFunction
from repro.faults.detector import DetectorConfig
from repro.gossip.view import Descriptor
from repro.net.bootstrap import SeedClient
from repro.net.liveness import LiveSwimDetector
from repro.net.timers import AsyncPeriodicTask, jittered_period
from repro.net.transport import UdpTransport
from repro.net.wire import encode_metrics_frame
from repro.obs.spans import CAUSE_FAULTED_LINK
from repro.obs.registry import MetricsRegistry
from repro.obs.telemetry import Telemetry
from repro.obs.trace import TraceWriter
from repro.sim.messages import Notification
from repro.sim.rng import SeedTree
from repro.workloads.subscriptions import bucket_subscriptions

__all__ = ["LiveWorkload", "LiveNodeHost", "run_node"]

log = logging.getLogger(__name__)


# ----------------------------------------------------------------------
# Shared workload derivation
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class LiveWorkload:
    """The cluster-wide workload, derived identically in every process.

    The driver and all node processes construct the same subscription
    map from these parameters alone, so no profile ever has to cross the
    control plane.  Defaults size a 20-50 process loopback cluster:
    small enough to converge in seconds, dense enough that topics have
    multi-node clusters worth flooding.
    """

    n_nodes: int
    n_topics: int = 60
    n_buckets: int = 12
    buckets_per_node: int = 4
    topics_per_bucket: int = 3
    seed: int = 0

    def subscriptions(self) -> List[FrozenSet[int]]:
        return bucket_subscriptions(
            self.n_nodes,
            n_topics=self.n_topics,
            n_buckets=self.n_buckets,
            buckets_per_node=self.buckets_per_node,
            topics_per_bucket=self.topics_per_bucket,
            seed=self.seed,
        )

    def cli_args(self) -> List[str]:
        """The ``live node`` flags reproducing this workload."""
        return [
            "--n-nodes", str(self.n_nodes),
            "--n-topics", str(self.n_topics),
            "--n-buckets", str(self.n_buckets),
            "--buckets-per-node", str(self.buckets_per_node),
            "--topics-per-bucket", str(self.topics_per_bucket),
            "--workload-seed", str(self.seed),
        ]

    @classmethod
    def from_ns(cls, ns) -> "LiveWorkload":
        return cls(
            n_nodes=ns.n_nodes,
            n_topics=ns.n_topics,
            n_buckets=ns.n_buckets,
            buckets_per_node=ns.buckets_per_node,
            topics_per_bucket=ns.topics_per_bucket,
            seed=ns.workload_seed,
        )


class LiveNodeHost:
    """The host of one live node process: the surface
    :class:`~repro.core.deployment.DeployedVitisNode` talks to (see
    :mod:`repro.core.deployment`), answered from process-local reality —
    membership from the seed registry, liveness from the local SWIM
    detector, time from the wall clock, the wire from UDP — and the
    wiring of that node to transport callbacks, detector, seed registry
    and collector.
    """

    def __init__(
        self,
        transport: UdpTransport,
        client: SeedClient,
        workload: LiveWorkload,
        config: VitisConfig,
        telemetry: Telemetry,
    ) -> None:
        address = client.address
        self.address = address
        self.config = config
        self.telemetry = telemetry
        self.client = client
        self.transport = transport
        self.send = transport.send
        self.space = IdSpace()
        self.seeds = SeedTree(workload.seed)
        self.topic_id = self.space.topic_id
        self._t0 = time.monotonic()
        self.subs = workload.subscriptions()
        self.utility = UtilityFunction(
            PublicationRates.uniform(max(1, workload.n_topics)),
            config.rate_weighted_utility,
        )
        #: Stays 0 (see :meth:`backpressured`); exported so the live metric
        #: catalogue matches the simulator's.
        self.backpressure_deferred = 0
        #: Current registry membership (kept fresh by seed pushes).  The
        #: peers of the join reply are members from the start, not rejoins.
        self.members: Set[int] = set(client.peers)
        transport.endpoints.update(client.peers)
        #: Events published here, events accepted for the local
        #: subscriber, and the latter's hop counts.
        self.published = 0
        self.delivered = 0
        self.delivery_hops = MetricsRegistry()
        self._span_seq = 0
        self._profiles: Dict[int, NodeProfile] = {}
        self.shutdown = asyncio.Event()
        self._metrics_task: Optional[AsyncPeriodicTask] = None
        self._metrics_cursor: Optional[Dict] = None
        self._metrics_seq = 0
        self.node = DeployedVitisNode(self, address, self.subs[address])
        self.detector = LiveSwimDetector(
            address,
            transport,
            random.Random(),
            clock=lambda: self.now,
            period=config.gossip_period,
            candidates=lambda: [a for a, _ in self.node.rt.links()],
            config=DetectorConfig(),
            on_confirm=self.evict_confirmed,
            population=lambda: len(self.members),
            on_transition=self.on_swim_transition,
        )

        transport.on_message = self._on_message
        transport.on_give_up = self._on_give_up
        client.on_registry = self._on_registry
        client.on_push = self._on_command

    # ------------------------------------------------------------------
    # The host surface
    # ------------------------------------------------------------------
    @property
    def now(self) -> float:
        """Monotonic seconds since this process's host came up."""
        return time.monotonic() - self._t0

    def backpressured(self, address: int) -> bool:
        """The live transport bounds no inbox yet, so nothing defers."""
        return False

    def start_timer(self, period: float, rng, fn) -> AsyncPeriodicTask:
        period = jittered_period(period, rng)
        return AsyncPeriodicTask(period, fn, first_delay=period * rng.random())

    def is_alive(self, address: int) -> bool:
        """Perceived liveness: a registry member the detector has not
        confirmed dead.  This is what the routing/election code consults,
        so confirmed-dead peers are shunned exactly like the simulator's
        detector-backed liveness."""
        if address == self.address:
            return self.node.alive
        return address in self.members and not self.detector.confirmed(address)

    def profile_of(self, address: int) -> Optional[NodeProfile]:
        """Ground-truth profile from the shared workload derivation (the
        fallback ranking source while nothing was heard yet)."""
        p = self._profiles.get(address)
        if p is None:
            if not 0 <= address < len(self.subs):
                return None
            p = self._profiles[address] = NodeProfile(
                address, self.space.node_id(address), self.subs[address]
            )
        return p

    def span(self, trace, kind, src, dst, hop, **fields) -> Optional[str]:
        """Emit one causal span under a process-unique string id
        (``build_span_trees`` keys spans by value, so merged traces never
        collide across processes)."""
        tel = self.telemetry
        if trace is None or not tel.tracing:
            return None
        sid = f"n{self.address}x{self._span_seq}"
        self._span_seq += 1
        tel.event(
            "span", t=self.now, trace=trace, span=sid,
            kind=kind, src=src, dst=dst, hop=hop, **fields,
        )
        return sid

    def deliver(self, msg: Notification) -> None:
        self.delivered += 1
        self.delivery_hops.histogram("live_delivery_hops").observe(msg.hops)

    # ------------------------------------------------------------------
    # Inbound datagrams
    # ------------------------------------------------------------------
    def _on_message(self, msg) -> None:
        self.detector.note_heard(msg.src)
        if not self.detector.on_message(msg):
            self.node.on_message(msg)

    def _on_give_up(self, msg) -> None:
        """A reliable send exhausted its retry budget: record the failed
        edge on the event's span tree (when it carried one) and hand the
        peer to the liveness layer instead of blocking on it."""
        if isinstance(msg, Notification) and msg.span is not None:
            trace, parent, kind = msg.span
            self.span(
                trace, kind, self.address, msg.dst, msg.hops,
                parent=parent, status=CAUSE_FAULTED_LINK,
            )
        self.detector.on_transport_failure(msg.dst)

    # ------------------------------------------------------------------
    # Registry / driver control plane
    # ------------------------------------------------------------------
    def _on_registry(self, peers: Dict[int, tuple]) -> None:
        previous = self.members
        self.members = set(peers)
        for addr, endpoint in peers.items():
            self.transport.endpoints[addr] = endpoint
            if addr not in previous:
                # A re-announced address starts from a fresh verdict.
                self.detector.on_rejoin(addr)

    def _on_command(self, obj: Dict) -> None:
        op = obj.get("op")
        if op == "publish":
            self.published += 1
            self.node.publish(
                obj["topic"], obj["event"], obj["trace"], obj["expected"]
            )
        elif op == "topo":
            self.client.send(self._topo_report(obj.get("req")))
        elif op == "shutdown":
            self.shutdown.set()
        else:
            log.debug("node %d: unknown command %r", self.address, op)

    def _topo_report(self, req) -> Dict:
        """This node's forwarding topology, as the driver's audit sees it:
        successor pointer (ring convergence), per-link learned shared
        interests (the flood edges), and per-topic relay-tree edges."""
        node = self.node
        succ = node.rt.successor()
        own = node.profile.subscriptions
        flood = []
        links = sorted(a for a, _ in node.rt.links())
        for a in links:
            info = node.neighbor_state.get(a)
            if info is not None:
                shared = sorted(own & info.subscriptions)
                if shared:
                    flood.append([a, shared])
        relay = []
        for t in sorted(set(node.relay.parent) | set(node.relay.children)):
            relay.append([
                t,
                node.relay.parent.get(t),
                sorted(node.relay.children.get(t, ())),
            ])
        return {
            "op": "topo_report",
            "req": req,
            "addr": self.address,
            "succ": succ.address if succ is not None else None,
            "links": links,
            "flood": flood,
            "relay": relay,
        }

    # ------------------------------------------------------------------
    # Detector hooks
    # ------------------------------------------------------------------
    def evict_confirmed(self, address: int) -> None:
        """The healing path on a SWIM confirmation: the node purges the
        peer, and the obituary goes to the registry."""
        self.node.evict_confirmed(address)
        self.client.report_dead(address)

    # ------------------------------------------------------------------
    # Metrics: current absolute values, streaming, final accounting
    # ------------------------------------------------------------------
    def current_metrics(self) -> MetricsRegistry:
        """This instant's absolute metric values, as a fresh registry.

        Built from scratch on every call (transport/detector counters are
        plain attributes, not registry instruments), so the streaming tick
        and the final snapshot read the *same* code path — the sum of
        streamed deltas and the shutdown ``metrics_snapshot`` cannot
        disagree, and nothing is ever double-counted into
        ``telemetry.metrics``.
        """
        m = MetricsRegistry()
        m.merge(self.delivery_hops.snapshot())
        t = self.transport
        m.counter("live_sent_total").inc(sum(t.sent.values()))
        m.counter("live_delivered_total").inc(sum(t.delivered.values()))
        m.counter("live_dropped_total").inc(sum(t.dropped.values()))
        m.counter("live_bytes_sent").inc(t.bytes_sent)
        m.counter("live_retransmits").inc(t.retransmits)
        m.counter("live_gave_up").inc(t.gave_up)
        m.counter("live_duplicates").inc(t.duplicates)
        m.counter("live_loss_injected").inc(t.loss_injected)
        m.counter("live_malformed").inc(t.malformed)
        m.counter("live_published").inc(self.published)
        m.counter("live_delivered_events").inc(self.delivered)
        m.counter("backpressure_deferred").inc(self.backpressure_deferred)
        m.gauge("live_queue_depth").set(t.pending_count)
        m.gauge("live_members").set(len(self.members))
        for name, value in self.detector.summary().items():
            m.counter(name).inc(value)
        counts = self.detector.verdict_counts()
        m.gauge("swim_suspect_peers").set(counts["suspect"])
        m.gauge("swim_dead_peers").set(counts["dead"])
        return m

    def start_metrics_stream(self, interval: float, rng) -> None:
        """Publish a ``metrics_delta`` frame every ``interval`` seconds
        (phase-jittered like every other live timer) over the already-open
        collector stream."""
        if self._metrics_task is not None:
            self._metrics_task.stop()
        period = jittered_period(interval, rng)
        self._metrics_task = AsyncPeriodicTask(
            period, self.emit_metrics_frame, first_delay=interval * rng.random()
        )

    def stop_metrics_stream(self) -> None:
        """Stop the periodic task and emit one last frame so the stored
        series ends on the node's final totals."""
        if self._metrics_task is None:
            return
        self._metrics_task.stop()
        self._metrics_task = None
        self.emit_metrics_frame()

    def emit_metrics_frame(self) -> bool:
        """One streaming tick: diff current metrics against the cursor and
        ship the changed slice (skipped entirely when nothing changed).
        Returns True when a frame was written."""
        delta, self._metrics_cursor = self.current_metrics().delta_since(
            self._metrics_cursor
        )
        if delta is None:
            return False
        writer = self.telemetry.trace
        if writer is None:
            return False
        writer.write_record(
            encode_metrics_frame(
                self.address, self._metrics_seq, self.now,
                time.time(), delta,
            )
        )
        self._metrics_seq += 1
        # Frames are only useful fresh — push them out now rather than
        # waiting for the trace buffer to fill.
        writer.flush()
        return True

    def on_swim_transition(self, peer: int, prev: str, state: str) -> None:
        """Detector verdict-transition hook: emit one ``swim`` trace record.

        Emitted whenever tracing is on — with or without metrics streaming
        — so the merged trace is identical in both modes; the collector
        tees these records into the live timeline.  ``ts`` carries epoch
        wall time because per-process ``t`` origins are not comparable
        across nodes.
        """
        tel = self.telemetry
        if tel.tracing:
            tel.event(
                "swim", t=self.now, ts=round(time.time(), 6),
                peer=peer, prev=prev, state=state,
            )

    def snapshot_metrics(self) -> None:
        """Fold the final absolute values into the telemetry registry so
        the collector's merged metrics line up with the simulator's
        traffic report columns."""
        self.telemetry.metrics.merge(self.current_metrics().snapshot())


# ----------------------------------------------------------------------
# Process entry
# ----------------------------------------------------------------------
async def run_node(ns) -> int:
    """Run one node process until the driver says shutdown (or the seed
    connection drops).  ``ns`` is the parsed ``live node`` namespace."""
    workload = LiveWorkload.from_ns(ns)
    config = VitisConfig(gossip_period=ns.gossip_period)

    net_rng = random.Random()
    transport = await UdpTransport.create(
        -1, net_rng, host=ns.bind_host, port=0, loss_rate=ns.loss_rate
    )
    host_addr, port = transport.local_addr
    client = await SeedClient.connect(
        ns.seed_host, ns.seed_port, host_addr, port, timeout=ns.join_timeout
    )
    address = client.address
    transport.address = address

    sock = socket.create_connection((ns.collector_host, ns.collector_port))
    fh = sock.makefile("w", encoding="utf-8")
    writer = TraceWriter(fh, flush_every=200, base={"proc": address})
    telemetry = Telemetry(trace=writer)

    host = LiveNodeHost(transport, client, workload, config, telemetry)
    node = host.node

    bootstrap_addrs = [a for a in client.peers if a != address]
    if len(bootstrap_addrs) > config.PEER_VIEW_SIZE:
        bootstrap_addrs = random.Random(workload.seed + address).sample(
            bootstrap_addrs, config.PEER_VIEW_SIZE
        )
    node.deploy([
        Descriptor(a, host.space.node_id(a), 0) for a in bootstrap_addrs
    ])
    detector_task = AsyncPeriodicTask(
        config.gossip_period,
        host.detector.tick,
        first_delay=jittered_period(config.gossip_period, net_rng),
    )
    if ns.metrics_interval > 0:
        host.start_metrics_stream(ns.metrics_interval, net_rng)

    # Run until the driver's shutdown command — or until the seed
    # connection drops (a dead driver must not leave orphans behind).
    seed_gone = client._reader_task
    shutdown_wait = asyncio.ensure_future(host.shutdown.wait())
    try:
        await asyncio.wait(
            {shutdown_wait, seed_gone}, return_when=asyncio.FIRST_COMPLETED
        )
    finally:
        shutdown_wait.cancel()

    node.undeploy()
    detector_task.stop()
    await transport.drain(timeout=2.0)
    host.stop_metrics_stream()
    host.snapshot_metrics()
    writer.write_record({
        "ev": "metrics_snapshot",
        "proc": address,
        "snapshot": telemetry.snapshot(),
    })
    writer.close()
    try:
        sock.close()
    except OSError:  # pragma: no cover - best-effort teardown
        pass
    transport.close()
    await client.close()
    return 0
