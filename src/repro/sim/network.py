"""Node registry and message transport.

The :class:`Network` owns all nodes of a simulation, delivers messages with
a pluggable latency model, and accounts traffic per message kind and per
node.  Messages to dead or unregistered nodes are dropped (and counted), the
way UDP datagrams to a vanished peer would be.

Two optional layers can be attached, both off by default and zero-cost
when off (a single ``is None`` check per message):

- a :class:`repro.faults.FaultModel` drops transmissions on the link
  (loss, partitions);
- a :class:`repro.sim.capacity.CapacityModel` bounds every destination's
  inbox, shedding arrivals the service rate cannot absorb.

Accounting is per message kind (``sent``/``delivered``/``dropped``/
``faulted``/``shed`` Counters) *and* per address (``sent_by_addr``/
``delivered_by_addr``/``shed_by_addr``), and :meth:`Network.hotspots`
ranks the heaviest inboxes — the single source of truth for
rendezvous-node hotspot load, whichever execution mode generated it.
"""

from __future__ import annotations

from collections import Counter
from typing import Dict, Iterator, List, Optional

from repro.sim.engine import Engine
from repro.sim.messages import Message
from repro.sim.node import BaseNode

__all__ = ["Network", "LatencyModel", "ConstantLatency", "UniformLatency"]


def _span_fields(msg: Message) -> Dict:
    """Causal-trace join fields of a stamped message (tracing only).

    Messages stamped by a traced dissemination carry
    ``span = (trace_id, parent_span_id, hop_kind)``; folding the first
    two into the transport's fault/drop events lets the auditor join a
    lost transmission back to the event's span tree.  Untraced messages
    contribute nothing.
    """
    meta = msg.span
    if meta is None:
        return {}
    return {"trace": meta[0], "span": meta[1]}


class LatencyModel:
    """Maps a (src, dst) pair to a one-way delay in simulated seconds."""

    def delay(self, src: int, dst: int) -> float:  # pragma: no cover - interface
        raise NotImplementedError


class ConstantLatency(LatencyModel):
    """Every link has the same fixed delay (default 0: synchronous)."""

    def __init__(self, delay: float = 0.0) -> None:
        if delay < 0:
            raise ValueError("delay must be >= 0")
        self._delay = delay

    def delay(self, src: int, dst: int) -> float:
        return self._delay


class UniformLatency(LatencyModel):
    """Per-message delay drawn uniformly from ``[low, high]``."""

    def __init__(self, low: float, high: float, rng) -> None:
        if not 0 <= low <= high:
            raise ValueError("need 0 <= low <= high")
        self._low = low
        self._high = high
        self._rng = rng

    def delay(self, src: int, dst: int) -> float:
        # random.uniform's own expression, minus its frame per message.
        return self._low + (self._high - self._low) * self._rng.random()


class Network:
    """Registry of nodes plus the message transport between them.

    Parameters
    ----------
    engine:
        Event engine used to schedule deliveries.
    latency:
        Latency model; default is zero-delay synchronous delivery, which is
        what cycle-driven experiments use (one hop = one unit of delay is
        accounted at the protocol level instead).
    """

    def __init__(self, engine: Engine, latency: Optional[LatencyModel] = None) -> None:
        self.engine = engine
        self.latency = latency or ConstantLatency(0.0)
        self._nodes: Dict[int, BaseNode] = {}
        # Traffic accounting
        self.sent = Counter()       # message kind -> count
        self.delivered = Counter()  # message kind -> count
        self.dropped = Counter()    # message kind -> count
        self.faulted = Counter()    # message kind -> count (fault-model drops)
        self.shed = Counter()       # message kind -> count (capacity refusals)
        # Per-address tallies (hotspot reads; see hotspots()).
        self.sent_by_addr = Counter()       # src address -> messages sent
        self.delivered_by_addr = Counter()  # dst address -> messages delivered
        self.shed_by_addr = Counter()       # dst address -> messages shed
        #: Optional :class:`repro.faults.FaultModel`; None = perfect transport.
        self.fault_model = None
        #: Optional :class:`repro.sim.capacity.CapacityModel`; None = elastic.
        self.capacity = None
        #: Optional telemetry for fault/drop counters and events
        #: (None = uninstrumented).
        self.telemetry = None

    # ------------------------------------------------------------------
    # Registry
    # ------------------------------------------------------------------
    def add(self, node: BaseNode) -> BaseNode:
        """Register an externally constructed node (address must be fresh)."""
        if node.address in self._nodes:
            raise ValueError(f"address {node.address} already registered")
        node.network = self
        self._nodes[node.address] = node
        return node

    def __len__(self) -> int:
        return len(self._nodes)

    def __iter__(self) -> Iterator[BaseNode]:
        return iter(self._nodes.values())

    # ------------------------------------------------------------------
    # Transport
    # ------------------------------------------------------------------
    def send(self, msg: Message) -> bool:
        """Send ``msg`` from ``msg.src`` to ``msg.dst``; False when a gate
        refused it.

        Delivery is scheduled on the engine after the latency model's delay;
        with the default zero-delay model the event still goes through the
        engine queue, preserving causal ordering.  An attached fault model
        may drop the message outright; an attached capacity model may shed
        it (see :meth:`_refused`).
        """
        lat = self.latency
        # Constant latency (the cycle-driven default) needs no per-pair
        # method call; the type check keeps a swapped-in model honest.
        # Drawn before admission: a per-message latency rng advances
        # for refused messages too.
        delay = lat._delay if type(lat) is ConstantLatency else lat.delay(msg.src, msg.dst)
        kind = msg.kind
        self.sent[kind] += 1
        self.sent_by_addr[msg.src] += 1
        if (self.fault_model is not None or self.capacity is not None) and self._refused(msg, kind):
            return False
        self.engine.schedule(delay, self._deliver, msg)
        return True

    def _refused(self, msg: Message, kind: str) -> bool:
        """Pass an accounted ``msg`` through the attached gates: the fault
        model may drop it on the link (counted in ``faulted``, never
        delivered), then the capacity model may shed it at the
        destination's bounded inbox (counted in ``shed`` — the link
        worked, the receiver was full)."""
        if self.fault_model is not None and self.fault_model.drop(
            msg.src, msg.dst, kind, self.engine.now
        ):
            self._record_fault(msg)
            return True
        if self.capacity is not None and not self.capacity.offer(
            msg.src, msg.dst, kind, self.engine.now
        ):
            self._record_shed(msg)
            return True
        return False

    def _record_fault(self, msg: Message) -> None:
        self.faulted[msg.kind] += 1
        tel = self.telemetry
        if tel is not None and tel.enabled:
            tel.metrics.counter(
                "faults_injected_total", site="network", kind=msg.kind
            ).inc()
            if tel.tracing:
                tel.event(
                    "fault", t=self.engine.now, site="network",
                    kind=msg.kind, src=msg.src, dst=msg.dst,
                    **_span_fields(msg),
                )

    def _record_shed(self, msg: Message) -> None:
        """A capacity refusal: counted here, telemetry (``shed_total``,
        ``shed`` events) is emitted by the capacity model itself."""
        self.shed[msg.kind] += 1
        self.shed_by_addr[msg.dst] += 1

    def _deliver(self, msg: Message) -> None:
        node = self._nodes.get(msg.dst)
        kind = msg.kind
        if node is None or not node.alive:
            self.dropped[kind] += 1
            tel = self.telemetry
            if tel is not None and tel.enabled:
                tel.metrics.counter("drops_total", site="network", kind=kind).inc()
                if tel.tracing:
                    tel.event(
                        "drop", t=self.engine.now, site="network",
                        kind=kind, src=msg.src, dst=msg.dst,
                        **_span_fields(msg),
                    )
            return
        self.delivered[kind] += 1
        self.delivered_by_addr[msg.dst] += 1
        node.on_message(msg)

    def account_logical(self, src: int, dst: int, kind: str, delivered: bool) -> None:
        """Fold one fast-path transmission into the per-address tallies.

        The cycle-driven protocols exchange state directly instead of
        constructing :class:`Message` objects, so when a capacity model
        gates those paths (dissemination edges, lookup hops, heartbeats),
        each gated transmission is reported here — keeping
        :meth:`hotspots` one source of truth across both execution modes.
        Never called on the ungated path (the zero-cost-off contract).
        """
        self.sent_by_addr[src] += 1
        if delivered:
            self.delivered_by_addr[dst] += 1
        else:
            self.shed[kind] += 1
            self.shed_by_addr[dst] += 1

    def hotspots(self, n: int = 10) -> List[Dict[str, int]]:
        """The ``n`` heaviest inboxes, by inbound load (delivered + shed).

        Each entry reports the address, its total inbound load, the
        delivered/shed split, and its outbound ``sent`` count; ties break
        by address.  Under rendezvous routing the top entries are the
        rendezvous nodes — the Fig. 5-style load distribution and the
        ``overload_sweep`` hotspot columns both read from here.
        """
        load = Counter(self.delivered_by_addr)
        load.update(self.shed_by_addr)
        top = sorted(load.items(), key=lambda kv: (-kv[1], kv[0]))[:n]
        return [
            {
                "address": addr,
                "inbound": total,
                "delivered": self.delivered_by_addr.get(addr, 0),
                "shed": self.shed_by_addr.get(addr, 0),
                "sent": self.sent_by_addr.get(addr, 0),
            }
            for addr, total in top
        ]

    def reset_traffic(self) -> None:
        """Zero all traffic counters (e.g. after warm-up)."""
        self.sent.clear()
        self.delivered.clear()
        self.dropped.clear()
        self.faulted.clear()
        self.shed.clear()
        self.sent_by_addr.clear()
        self.delivered_by_addr.clear()
        self.shed_by_addr.clear()
