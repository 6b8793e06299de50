"""Versioned wire codec for the live UDP transport.

One datagram carries one JSON envelope::

    {"v": 1, "k": "<kind>", "n": <seq>, "s": <src>, "d": <dst>,
     "p": {<payload fields>}, "sp": [trace, parent_span, hop]?}

- ``v`` — wire version; a receiver drops datagrams whose version it does
  not speak (never crashes on them);
- ``k`` — the message kind, i.e. the :mod:`repro.sim.messages` class
  name, so the priority taxonomy and byte audit apply unchanged;
- ``n`` — per-sender sequence number, the ack/retransmit/dedup key;
- ``p`` — the payload fields enumerated by
  :func:`repro.sim.messages.payload_fields` — the exact field set the
  ``size_bytes`` audit covers, so codec and accounting cannot drift;
- ``sp`` — optional causal-span metadata (``Message.span``), carried
  outside the payload exactly as the simulator keeps it outside
  ``size_bytes``.

Acks are tiny control envelopes: ``{"v": 1, "k": "__ack", "n": <seq>,
"s": <acker>, "d": <original sender>}``.

JSON cannot carry frozensets or :class:`~repro.core.gateway.Proposal`
objects, so the codec converts per kind: profile payloads and descriptor
triples round-trip through plain lists.  Encoding is deterministic
(sorted sets, sorted dict keys) so a resent datagram is byte-identical to
the original.
"""

from __future__ import annotations

import json
from typing import Any, Dict, Optional, Tuple

from repro.core.gateway import Proposal
from repro.sim import messages as M
from repro.sim.messages import Message, payload_fields

__all__ = [
    "WIRE_VERSION",
    "ACK_KIND",
    "WireError",
    "encode",
    "decode",
    "encode_ack",
    "MESSAGE_KINDS",
    "METRICS_FRAME_KIND",
    "METRICS_FRAME_VERSION",
    "encode_metrics_frame",
    "decode_metrics_frame",
]

WIRE_VERSION = 1

#: Envelope kind of a transport-level acknowledgement.
ACK_KIND = "__ack"

#: kind name → message class, for every codec-supported kind.
MESSAGE_KINDS: Dict[str, type] = {
    cls.__name__: cls
    for cls in (
        M.Notification,
        M.PullRequest,
        M.PullReply,
        M.ProfileMessage,
        M.LookupMessage,
        M.PsExchangeRequest,
        M.PsExchangeReply,
        M.RtExchangeRequest,
        M.RtExchangeReply,
        M.RelayInstall,
        M.Probe,
        M.ProbeReq,
        M.ProbeAck,
        M.Suspicion,
        M.Refutation,
    )
}


class WireError(ValueError):
    """A datagram that cannot be decoded (wrong version, kind, shape)."""


# ----------------------------------------------------------------------
# Per-kind payload conversion (JSON-representable <-> native)
# ----------------------------------------------------------------------
def _encode_profile(profile: Tuple) -> list:
    subs, version, proposals, is_reply = profile
    return [
        sorted(subs),
        version,
        [
            [t, p.gw_addr, p.gw_id, p.parent_addr, p.hops]
            for t, p in sorted(proposals.items())
        ],
        bool(is_reply),
    ]


def _decode_profile(obj: list) -> Tuple:
    subs, version, proposals, is_reply = obj
    return (
        frozenset(subs),
        version,
        {t: Proposal(gw, gid, parent, hops) for t, gw, gid, parent, hops in proposals},
        bool(is_reply),
    )


def _encode_value(kind: str, name: str, value: Any) -> Any:
    if kind == "ProfileMessage" and name == "profile" and value is not None:
        return _encode_profile(value)
    if isinstance(value, (set, frozenset)):
        return sorted(value)
    if isinstance(value, tuple):
        return list(value)
    return value


def _decode_value(kind: str, name: str, value: Any) -> Any:
    if kind == "ProfileMessage" and name == "profile" and value is not None:
        return _decode_profile(value)
    if name in ("view", "buffer") and isinstance(value, list):
        # Descriptor triples arrive as lists; the node indexes them
        # positionally, so tuples restore exact equality with the sender.
        return [tuple(item) for item in value]
    return value


# ----------------------------------------------------------------------
# Envelope encode/decode
# ----------------------------------------------------------------------
def encode(msg: Message, seq: int) -> bytes:
    """Encode one message (+ its transport sequence number) to a datagram."""
    kind = msg.kind
    if kind not in MESSAGE_KINDS:
        raise WireError(f"kind {kind!r} is not wire-registered")
    payload = {
        name: _encode_value(kind, name, getattr(msg, name))
        for name in payload_fields(type(msg))
    }
    envelope: Dict[str, Any] = {
        "v": WIRE_VERSION,
        "k": kind,
        "n": seq,
        "s": msg.src,
        "d": msg.dst,
        "p": payload,
    }
    if msg.span is not None:
        envelope["sp"] = list(msg.span)
    return json.dumps(envelope, separators=(",", ":"), sort_keys=True).encode()


def encode_ack(seq: int, src: int, dst: int) -> bytes:
    """Encode a transport ack for sequence ``seq`` (``src`` is the acker)."""
    return json.dumps(
        {"v": WIRE_VERSION, "k": ACK_KIND, "n": seq, "s": src, "d": dst},
        separators=(",", ":"),
        sort_keys=True,
    ).encode()


def decode(datagram: bytes) -> Tuple[Optional[Message], Dict[str, Any]]:
    """Decode one datagram to ``(message, envelope)``.

    Acks decode to ``(None, envelope)`` — the transport consumes them.
    Raises :class:`WireError` on any malformed or wrong-version datagram;
    callers drop those (an unreliable transport never trusts its input).
    """
    try:
        envelope = json.loads(datagram.decode())
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise WireError(f"undecodable datagram: {exc}") from exc
    if not isinstance(envelope, dict) or envelope.get("v") != WIRE_VERSION:
        raise WireError(f"unsupported wire version: {envelope!r:.80}")
    kind = envelope.get("k")
    if kind == ACK_KIND:
        return None, envelope
    cls = MESSAGE_KINDS.get(kind)
    if cls is None:
        raise WireError(f"unknown message kind: {kind!r}")
    payload = envelope.get("p")
    if not isinstance(payload, dict):
        raise WireError("missing payload")
    try:
        kwargs = {
            name: _decode_value(kind, name, payload[name])
            for name in payload_fields(cls)
            if name in payload
        }
        msg = cls(src=envelope["s"], dst=envelope["d"], **kwargs)
    except (KeyError, TypeError, ValueError) as exc:
        raise WireError(f"malformed {kind} payload: {exc}") from exc
    span = envelope.get("sp")
    if span is not None:
        msg.span = tuple(span)
    return msg, envelope


# ----------------------------------------------------------------------
# Metrics snapshot frames (node -> collector, over the obs TCP stream)
# ----------------------------------------------------------------------
#: ``ev`` value of a streamed metrics-delta record on the collector stream.
METRICS_FRAME_KIND = "metrics_delta"

#: Frame format version — a collector drops frames whose version it does
#: not speak (never crashes on them), mirroring ``WIRE_VERSION`` gating.
METRICS_FRAME_VERSION = 1


def encode_metrics_frame(
    proc: int, seq: int, t: float, ts: float, delta: Dict[str, Any]
) -> Dict[str, Any]:
    """Build one metrics-delta frame record for the collector stream.

    ``t`` is the node's local monotonic clock (since process start) and
    ``ts`` the epoch wall time — the collector aligns nodes on ``ts``
    because per-process ``t`` origins differ.  ``delta`` is the changed
    slice from :meth:`repro.obs.registry.MetricsRegistry.delta_since`.
    The frame rides the same JSONL stream as trace records (one JSON
    object per line) so no second connection is needed.
    """
    return {
        "ev": METRICS_FRAME_KIND,
        "mv": METRICS_FRAME_VERSION,
        "proc": proc,
        "n": seq,
        "t": t,
        "ts": ts,
        "delta": delta,
    }


def decode_metrics_frame(record: Dict[str, Any]) -> Tuple[int, int, float, float, Dict]:
    """Validate a metrics-delta record; returns ``(proc, seq, t, ts, delta)``.

    Raises :class:`WireError` on a wrong-version or malformed frame so the
    collector can count-and-drop it without poisoning its store.
    """
    if not isinstance(record, dict) or record.get("ev") != METRICS_FRAME_KIND:
        raise WireError(f"not a metrics frame: {record!r:.80}")
    if record.get("mv") != METRICS_FRAME_VERSION:
        raise WireError(f"unsupported metrics frame version: {record.get('mv')!r}")
    proc = record.get("proc")
    seq = record.get("n")
    t = record.get("t")
    ts = record.get("ts")
    delta = record.get("delta")
    if (
        not isinstance(proc, int) or isinstance(proc, bool)
        or not isinstance(seq, int)
        or not isinstance(t, (int, float))
        or not isinstance(ts, (int, float))
        or not isinstance(delta, dict)
    ):
        raise WireError(f"malformed metrics frame: {record!r:.80}")
    for section in delta:
        if section not in ("counters", "gauges", "histograms"):
            raise WireError(f"unknown delta section: {section!r}")
    return proc, seq, float(t), float(ts), delta
