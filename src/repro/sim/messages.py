"""Message types for the network transport.

The cycle-driven protocols exchange state directly (the PeerSim idiom), but
message-level simulations — used by the reference dissemination path and the
examples — send instances of these classes through
:class:`repro.sim.network.Network`.

The paper's traffic-overhead metric is message-based, so every message
counts as one unit.  :func:`payload_fields` names each kind's payload
(everything but the framing) for the wire codec.

Priorities
----------
Every message kind maps to one of four priority classes, used by the
capacity layer's shedding policies (:mod:`repro.sim.capacity`): overlay
maintenance must survive overload (losing it collapses the topology and
with it *future* delivery), so control outranks lookups, which outrank
notifications, which outrank payload pulls — the exact inverse of byte
volume, which is what makes graceful degradation possible.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from typing import Any, Dict, Tuple

__all__ = [
    "Message",
    "Notification",
    "ProfileMessage",
    "PsExchangeRequest",
    "PsExchangeReply",
    "RtExchangeRequest",
    "RtExchangeReply",
    "RelayInstall",
    "Probe",
    "ProbeReq",
    "ProbeAck",
    "Suspicion",
    "Refutation",
    "PRIO_PULL",
    "PRIO_NOTIFY",
    "PRIO_LOOKUP",
    "PRIO_CONTROL",
    "KIND_PRIORITY",
    "priority_of",
    "payload_fields",
]

# ----------------------------------------------------------------------
# Priority taxonomy (lowest sheds first)
# ----------------------------------------------------------------------
PRIO_PULL = 0  #: payload pulls — bulky, re-requestable, first to shed
PRIO_NOTIFY = 1  #: event notifications — the data plane
PRIO_LOOKUP = 2  #: greedy-routing lookups — needed to reach rendezvous
PRIO_CONTROL = 3  #: ring/ps/rt maintenance and relay installs — never shed first

#: Message kind → priority class.  Keys cover both the message classes of
#: the deployment mode (class names, see :attr:`Message.kind`) and the
#: string tags the fast cycle-driven path charges without constructing
#: message objects.
KIND_PRIORITY: Dict[str, int] = {
    # Payload pulls
    "pull": PRIO_PULL,
    # Data plane
    "Notification": PRIO_NOTIFY,
    "notify": PRIO_NOTIFY,
    # Lookups
    "lookup": PRIO_LOOKUP,
    # Control plane
    "ProfileMessage": PRIO_CONTROL,
    "PsExchangeRequest": PRIO_CONTROL,
    "PsExchangeReply": PRIO_CONTROL,
    "RtExchangeRequest": PRIO_CONTROL,
    "RtExchangeReply": PRIO_CONTROL,
    "RelayInstall": PRIO_CONTROL,
    "heartbeat": PRIO_CONTROL,
    "relay_install": PRIO_CONTROL,
    # SWIM failure detection (repro.faults.detector): losing liveness
    # traffic under overload would evict healthy nodes, so it rides the
    # control class.
    "Probe": PRIO_CONTROL,
    "ProbeReq": PRIO_CONTROL,
    "ProbeAck": PRIO_CONTROL,
    "Suspicion": PRIO_CONTROL,
    "Refutation": PRIO_CONTROL,
    "probe": PRIO_CONTROL,
    "probe_req": PRIO_CONTROL,
    "ack": PRIO_CONTROL,
    "suspect": PRIO_CONTROL,
    "refute": PRIO_CONTROL,
}


def priority_of(kind: str) -> int:
    """The priority class of a message kind (unknown kinds are data)."""
    return KIND_PRIORITY.get(kind, PRIO_NOTIFY)


#: Base-class fields that are transport framing, not payload.  The wire
#: codec (:mod:`repro.net.wire`) carries them in its own frame header.
_FRAMING_FIELDS = ("src", "dst")

_PAYLOAD_FIELD_CACHE: Dict[type, Tuple[str, ...]] = {}


def payload_fields(message_cls: type) -> Tuple[str, ...]:
    """The payload field names of a message class, in declaration order.

    The wire codec checks its frame layouts against this at import, so
    a field added to a message class cannot go missing from the wire.
    """
    cached = _PAYLOAD_FIELD_CACHE.get(message_cls)
    if cached is None:
        cached = tuple(
            f.name for f in fields(message_cls) if f.name not in _FRAMING_FIELDS
        )
        _PAYLOAD_FIELD_CACHE[message_cls] = cached
    return cached


@dataclass
class Message:
    """Base class for all simulator messages.

    Attributes
    ----------
    src, dst:
        Node addresses (opaque ints managed by the network).
    """

    src: int
    dst: int

    # Causal-tracing metadata: ``(trace_id, span_id)`` stamped by traced
    # runs only (see repro.obs.spans).  Deliberately NOT a dataclass
    # field and deliberately unannotated: constructor signature, __eq__
    # and __repr__ stay identical, and it is not a payload field — it is
    # observability metadata, so a traced run sends the same payloads.
    span = None

    #: Short name used by traffic accounting: the class's own name, set
    #: once per class (un-annotated for the same reasons as ``span``).
    kind = "Message"

    def __init_subclass__(cls, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        cls.kind = cls.__name__


@dataclass
class Notification(Message):
    """An event notification: "something new was published on ``topic``".

    Notifications are small; the paper's receivers fetch the payload
    with a pull, which no path of the simulator sends (the ``"pull"``
    kind keeps its capacity class).
    """

    topic: int = -1
    event_id: int = -1
    hops: int = 0
    publisher: int = -1


@dataclass
class ProfileMessage(Message):
    """Periodic profile/heartbeat exchange (paper Alg. 6/7)."""

    profile: Any = None


# ----------------------------------------------------------------------
# Message-driven deployment mode (repro.core.deployment)
# ----------------------------------------------------------------------
@dataclass
class PsExchangeRequest(Message):
    """Active half of a Newscast exchange: the initiator's view snapshot
    (list of ``(address, node_id, age)`` triples, self included fresh)."""

    view: list = field(default_factory=list)


@dataclass
class PsExchangeReply(Message):
    """Passive half: the responder's pre-merge view snapshot."""

    view: list = field(default_factory=list)


@dataclass
class RtExchangeRequest(Message):
    """Active half of a T-Man routing-table exchange (paper Alg. 2):
    the initiator's candidate buffer."""

    buffer: list = field(default_factory=list)


@dataclass
class RtExchangeReply(Message):
    """Passive half (paper Alg. 3): the responder's pre-merge buffer."""

    buffer: list = field(default_factory=list)


@dataclass
class RelayInstall(Message):
    """One hop of a gateway's ``RequestRelay`` lookup (Alg. 5 line 21).

    Travels greedily toward ``hash(topic)``; every node it crosses
    becomes a relay: it records the previous hop as a child and the next
    hop as its parent, stopping early when it grafts onto an existing
    branch or reaches the rendezvous.
    """

    topic: int = -1
    target_id: int = -1
    origin: int = -1
    hops: int = 0


# ----------------------------------------------------------------------
# SWIM failure detection (repro.faults.detector)
# ----------------------------------------------------------------------
@dataclass
class Probe(Message):
    """A direct liveness ping: ``src`` asks ``target`` to ack this cycle."""

    target: int = -1
    incarnation: int = 0


@dataclass
class ProbeReq(Message):
    """Indirect probe request: ``origin`` asks a proxy to ping ``target``
    on its behalf after a direct-probe miss."""

    target: int = -1
    origin: int = -1


@dataclass
class ProbeAck(Message):
    """The (possibly proxied) ack proving ``target`` is alive, stamped
    with the target's current incarnation number."""

    target: int = -1
    incarnation: int = 0


@dataclass
class Suspicion(Message):
    """Gossiped suspicion: ``target`` at ``incarnation`` missed its probes
    and is presumed failing unless it refutes."""

    target: int = -1
    incarnation: int = 0


@dataclass
class Refutation(Message):
    """A suspected-but-live node's rebuttal: "I am alive at a *higher*
    incarnation than the suspicion names" — overriding eviction."""

    target: int = -1
    incarnation: int = 0
