"""Versioned wire codec for the live UDP transport.

Wire **version 3**: one datagram is one little-endian :mod:`struct`
frame (byte-layout tables in ``docs/deployment.md``)::

    version:u8 | kind:u8 | seq:u64 | src:i64 | dst:i64 | body | span trailer?

- ``version`` — a receiver drops datagrams of versions it does not
  speak, version-1 JSON and version-2 frames included (never crashes on
  them);
- ``kind`` — bits 0–6 the code of a :data:`MESSAGE_KINDS` row, bit 7 = a
  span trailer follows.  Code 0 is an ack for a run of sequence numbers:
  the header (``seq`` the first of the run), then ``n:u16`` and ``n``
  further ``u64`` seqs;
- ``seq`` — per-sender sequence number, the ack/retransmit/dedup key;
- ``body`` — the fields :func:`repro.sim.messages.payload_fields`
  enumerates; :data:`MESSAGE_KINDS` is checked against it at import, so
  a field added to a message class cannot go missing from the wire.  Ring ids are ``u64``, every other integer
  ``i64`` (an ``IdSpace`` wider than 64 bits cannot ride this version);
- span trailer — ``Message.span``, carried outside the body exactly as
  the simulator keeps it outside ``payload_fields``.

Encoding is a pure function of the message value (sets and dict keys
sorted), so a resent datagram is byte-identical to the original.  The
frame is its own schema: a field of the wrong type cannot be encoded and
cannot arrive; :func:`encode` and :func:`decode` raise only
:class:`WireError`.
"""

from __future__ import annotations

import struct
from itertools import starmap
from operator import attrgetter
from typing import Any, Dict, Optional, Sequence, Tuple, Union

from repro.core.gateway import Proposal
from repro.sim import messages as M
from repro.sim.messages import Message, payload_fields

__all__ = [
    "WIRE_VERSION",
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

WIRE_VERSION = 3


class WireError(ValueError):
    """A datagram that cannot be decoded (wrong version, kind, shape) or a
    message the frame cannot carry (unregistered kind, out-of-range field)."""


#: version, kind code (| ``_SPAN_BIT``), seq, src, dst.
_HEADER = "<BBQqq"
_HEADER_SIZE = struct.calcsize(_HEADER)
#: An ack: the header (``seq`` the first of the run), then how many
#: further ``u64`` seqs follow it.
_ACK = struct.Struct(_HEADER + "H")
_SPAN_BIT = 0x80
_U16 = struct.Struct("<H")
_I64 = struct.Struct("<q")
#: ``present:u8 | count:u16`` ahead of an optional counted tail.
_OPTIONAL = struct.Struct("<BH")
#: One ``(address, node_id, age)`` descriptor of a view / buffer.
_TRIPLE = struct.Struct("<qQq")
#: ``flags:u8`` (bit 0 present, bit 1 is_reply) ``| n_subs:u16 | n_props:u16 | version:i64``.
_PROFILE = struct.Struct("<BHHq")
#: One proposal row: topic, gw_addr, gw_id, parent_addr, hops.
_PROPOSAL = struct.Struct("<qqQqq")


# ----------------------------------------------------------------------
# Variable tails: ``pack(head, value) -> head + tail`` (one join, so a
# frame is allocated once) / ``unpack(data, at, n) -> (value, end)``;
# every length is checked against ``n = len(data)`` before anything is
# unpacked.
# ----------------------------------------------------------------------
def _counted(data: bytes, at: int, n: int, width: int):
    """Bounds ``(start, end)`` of the ``count:u16`` items of ``width``
    bytes that start at ``at``, checked against the datagram."""
    start = at + 2
    if start > n:
        raise WireError("truncated count")
    end = start + width * _U16.unpack_from(data, at)[0]
    if end > n:
        raise WireError("count overruns the datagram")
    return start, end


def _pack_triples(head: bytes, triples) -> bytes:
    return b"".join([head, _U16.pack(len(triples)), *starmap(_TRIPLE.pack, triples)])


def _unpack_triples(data: bytes, at: int, n: int):
    start, end = _counted(data, at, n, _TRIPLE.size)
    return list(_TRIPLE.iter_unpack(data[start:end])), end


def _pack_profile(head: bytes, profile) -> bytes:
    if profile is None:
        return head + _PROFILE.pack(0, 0, 0, 0)
    subs, version, proposals, is_reply = profile
    pack = _PROPOSAL.pack
    return b"".join([
        head,
        _PROFILE.pack(3 if is_reply else 1, len(subs), len(proposals), version),
        struct.pack("<%dq" % len(subs), *sorted(subs)),
        *[
            pack(t, p.gw_addr, p.gw_id, p.parent_addr, p.hops)
            for t, p in sorted(proposals.items())
        ],
    ])


def _unpack_profile(data: bytes, at: int, n: int):
    start = at + _PROFILE.size
    if start > n:
        raise WireError("truncated profile head")
    flags, n_subs, n_props, version = _PROFILE.unpack_from(data, at)
    rows = start + 8 * n_subs
    end = rows + _PROPOSAL.size * n_props
    if flags not in (1, 3) and (flags or n_subs or n_props or version):
        raise WireError(f"bad profile flags: {flags:#x}")
    if end > n:
        raise WireError("profile counts overrun the datagram")
    if not flags:
        return None, end
    return (
        frozenset(struct.unpack_from("<%dq" % n_subs, data, start)),
        version,
        {
            t: Proposal(gw, gid, parent, hops)
            for t, gw, gid, parent, hops in _PROPOSAL.iter_unpack(data[rows:end])
        },
        flags == 3,
    ), end


def _optional_run(item: str, build):
    """Codec pair for ``None`` or a run of ``item``s, ``present:u8 |
    count:u16 | items`` — ``LookupMessage.trace`` (``None | list[int]``)
    and ``PullReply.payload`` (``None | bytes``)."""
    width = struct.calcsize(item)

    def pack(head: bytes, values) -> bytes:
        if values is None:
            return head + _OPTIONAL.pack(0, 0)
        count = len(values)
        return head + _OPTIONAL.pack(1, count) + struct.pack("<%d%s" % (count, item), *values)

    def unpack(data: bytes, at: int, n: int):
        present = data[at] if at < n else -1
        start, end = _counted(data, at + 1, n, width)
        count = (end - start) // width
        if present not in (0, 1) or (count and not present):
            raise WireError("bad optional tail")
        if not present:
            return None, end
        return build(struct.unpack_from("<%d%s" % (count, item), data, start)), end

    return pack, unpack


def _pack_str(text: str) -> bytes:
    raw = str.encode(text)
    return _U16.pack(len(raw)) + raw


def _unpack_str(data: bytes, at: int, n: int):
    start, end = _counted(data, at, n, 1)
    try:
        return str(data[start:end], "utf-8"), end
    except UnicodeDecodeError as exc:
        raise WireError(f"span string is not UTF-8: {exc}") from exc


def _pack_span(span) -> bytes:
    """``(trace: str, parent: None | int | str, hop: str)`` as
    length-prefixed UTF-8 around a tagged parent."""
    trace, parent, hop = span
    if parent is None:
        tagged = b"\x00"
    elif isinstance(parent, str):
        tagged = b"\x02" + _pack_str(parent)
    else:
        tagged = b"\x01" + _I64.pack(parent)
    return _pack_str(trace) + tagged + _pack_str(hop)


def _unpack_span(data: bytes, at: int, n: int):
    trace, at = _unpack_str(data, at, n)
    tag = data[at] if at < n else -1
    at += 1
    if tag == 0:
        parent = None
    elif tag == 1 and at + 8 <= n:
        parent = _I64.unpack_from(data, at)[0]
        at += 8
    elif tag == 2:
        parent, at = _unpack_str(data, at, n)
    else:
        raise WireError("bad span parent")
    hop, at = _unpack_str(data, at, n)
    return (trace, parent, hop), at


_TRIPLES = (_pack_triples, _unpack_triples)

#: The kind table both directions are built from: ``(code, class, fixed
#: body layout, variable tail codec | None, payload fields)``.  The fixed
#: layout covers the leading payload fields, the tail codec the last one.
MESSAGE_KINDS: Tuple[Tuple[int, type, str, Optional[tuple], Tuple[str, ...]], ...] = (
    (1, M.Notification, "qqqq", None, ("topic", "event_id", "hops", "publisher")),
    (2, M.PullRequest, "q", None, ("event_id",)),
    (3, M.PullReply, "q", _optional_run("B", bytes), ("event_id", "payload")),
    (4, M.ProfileMessage, "", (_pack_profile, _unpack_profile), ("profile",)),
    (5, M.LookupMessage, "Qqq", _optional_run("q", list),
     ("target_id", "origin", "hops", "trace")),
    (6, M.PsExchangeRequest, "", _TRIPLES, ("view",)),
    (7, M.PsExchangeReply, "", _TRIPLES, ("view",)),
    (8, M.RtExchangeRequest, "", _TRIPLES, ("buffer",)),
    (9, M.RtExchangeReply, "", _TRIPLES, ("buffer",)),
    (10, M.RelayInstall, "qQqq", None, ("topic", "target_id", "origin", "hops")),
    (11, M.Probe, "qq", None, ("target", "incarnation")),
    (12, M.ProbeReq, "qq", None, ("target", "origin")),
    (13, M.ProbeAck, "qq", None, ("target", "incarnation")),
    (14, M.Suspicion, "qq", None, ("target", "incarnation")),
    (15, M.Refutation, "qq", None, ("target", "incarnation")),
)

_ENCODERS: Dict[type, tuple] = {}
_DECODERS: Dict[int, tuple] = {}
for _code, _cls, _layout, _tail, _fields in MESSAGE_KINDS:
    if _fields != payload_fields(_cls) or len(_layout) + (_tail is not None) != len(_fields):
        raise AssertionError(f"wire layout of {_cls.__name__} drifted from payload_fields")
    if not 0 < _code < _SPAN_BIT or _code in _DECODERS:
        raise AssertionError(f"bad or duplicate wire code {_code}")
    _frame = struct.Struct(_HEADER + _layout)
    _pack_tail, _unpack_tail = _tail or (None, None)
    _ENCODERS[_cls] = (_code, _frame, attrgetter("src", "dst", *_fields), _pack_tail)
    _DECODERS[_code] = (_cls, _frame, _unpack_tail)


# ----------------------------------------------------------------------
# Frame encode/decode
# ----------------------------------------------------------------------
def encode(msg: Message, seq: int) -> bytes:
    """Encode one message (+ its transport sequence number) to a datagram."""
    entry = _ENCODERS.get(type(msg))
    if entry is None:
        raise WireError(f"kind {msg.kind!r} is not wire-registered")
    code, frame, fields_of, pack_tail = entry
    span = msg.span
    if span is not None:
        code |= _SPAN_BIT
    try:
        if pack_tail is None:
            data = frame.pack(WIRE_VERSION, code, seq, *fields_of(msg))
        else:
            *fixed, tail = fields_of(msg)
            data = pack_tail(frame.pack(WIRE_VERSION, code, seq, *fixed), tail)
        return data if span is None else data + _pack_span(span)
    except (struct.error, TypeError, ValueError, AttributeError) as exc:
        raise WireError(f"{msg.kind} does not fit the frame: {exc}") from exc


def encode_ack(seqs: Sequence[int], src: int, dst: int) -> bytes:
    """Encode one transport ack for the run of sequence numbers ``seqs``
    (at least one; ``src`` is the acker)."""
    try:
        first, *rest = seqs
        count = len(rest)
        return _ACK.pack(WIRE_VERSION, 0, first, src, dst, count) + struct.pack(
            "<%dQ" % count, *rest
        )
    except (struct.error, TypeError, ValueError) as exc:
        raise WireError(f"an ack cannot carry {seqs!r:.80}: {exc}") from exc


def decode(datagram: bytes) -> Tuple[Optional[Message], Union[int, Tuple[int, ...]]]:
    """Decode one datagram to ``(message, seq)``.

    An ack decodes to ``(None, seqs)``: the tuple of sequence numbers it
    acks, in the order they arrived — the transport consumes them.
    Raises :class:`WireError` (and nothing else) on any malformed or
    wrong-version datagram; callers drop those (an unreliable transport
    never trusts its input).
    """
    n = len(datagram)
    if n < _HEADER_SIZE or datagram[0] != WIRE_VERSION:
        raise WireError(f"not a version-{WIRE_VERSION} frame: {datagram[:8]!r}")
    code = datagram[1]
    if code == 0:
        if n < _ACK.size:
            raise WireError("truncated ack")
        _, _, first, _, _, count = _ACK.unpack_from(datagram)
        if n != _ACK.size + 8 * count:
            raise WireError("ack count does not match the datagram")
        return None, (first, *struct.unpack_from("<%dQ" % count, datagram, _ACK.size))
    entry = _DECODERS.get(code & ~_SPAN_BIT)
    if entry is None:
        raise WireError(f"unknown kind code: {code:#x}")
    cls, frame, unpack_tail = entry
    end = frame.size
    if end > n:
        raise WireError(f"truncated {cls.__name__}")
    _, _, seq, src, dst, *body = frame.unpack_from(datagram)
    if unpack_tail is not None:
        tail, end = unpack_tail(datagram, end, n)
        body.append(tail)
    msg = cls(src, dst, 1, *body)  # size: the abstract unit, never sent
    if code & _SPAN_BIT:
        msg.span, end = _unpack_span(datagram, end, n)
    if end != n:
        raise WireError(f"trailing bytes after {cls.__name__}")
    return msg, seq


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
