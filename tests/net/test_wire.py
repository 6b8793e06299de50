"""repro.net.wire: versioned codec round-trips, golden frames and rejection paths."""

import json
from pathlib import Path

import pytest

from repro.core.gateway import Proposal
from repro.net import wire
from repro.sim import messages as M
from repro.sim.messages import payload_fields

GOLDEN = json.loads(
    (Path(__file__).parent.parent / "fixtures" / "wire_v3_frames.json").read_text()
)


def build_golden(entry):
    """The message a fixture entry describes (JSON cannot hold frozensets,
    ``Proposal``s, tuples or bytes, so those are rebuilt here)."""
    args = dict(entry["args"])
    if args.get("profile") is not None:
        subs, version, proposals, is_reply = args["profile"]
        args["profile"] = (
            frozenset(subs), version,
            {int(t): Proposal(*p) for t, p in proposals.items()}, is_reply,
        )
    for name in ("view", "buffer"):
        if name in args:
            args[name] = [tuple(t) for t in args[name]]
    if args.get("payload") is not None:
        args["payload"] = bytes.fromhex(args["payload"])
    msg = getattr(M, entry["kind"])(**args)
    if entry["span"] is not None:
        msg.span = tuple(entry["span"])
    return msg


def _roundtrip(msg):
    decoded, seq = wire.decode(wire.encode(msg, seq=7))
    assert seq == 7
    return decoded


def test_roundtrip_simple_kinds():
    for msg in (
        M.Notification(src=1, dst=2, topic=9, event_id=4, hops=3, publisher=1),
        M.PullRequest(src=1, dst=2, event_id=4),
        M.PullReply(src=1, dst=2, event_id=4, payload=b"body\x00"),
        M.LookupMessage(src=1, dst=2, target_id=55, origin=1, hops=2),
        M.LookupMessage(src=1, dst=2, target_id=55, origin=1, hops=2, trace=[1, 2]),
        M.RelayInstall(src=1, dst=2, topic=3, target_id=4, origin=5, hops=6),
        M.Probe(src=1, dst=2, target=2, incarnation=3),
        M.ProbeReq(src=1, dst=2, target=5, origin=1),
        M.ProbeAck(src=2, dst=1, target=2, incarnation=3),
        M.Suspicion(src=1, dst=2, target=5, incarnation=0),
        M.Refutation(src=5, dst=1, target=5, incarnation=1),
    ):
        assert _roundtrip(msg) == msg


def test_roundtrip_descriptor_views():
    msg = M.PsExchangeRequest(src=3, dst=4, view=[(1, 100, 0), (2, 200, 5)])
    assert _roundtrip(msg) == msg
    msg = M.RtExchangeReply(src=3, dst=4, buffer=[(9, 900, 1)])
    assert _roundtrip(msg) == msg


def test_roundtrip_profile_with_proposals():
    profile = (
        frozenset({3, 1, 2}),
        4,
        {7: Proposal(1, 100, 2, 3), 9: Proposal(5, 500, 6, 1)},
        False,
    )
    out = _roundtrip(M.ProfileMessage(src=1, dst=2, profile=profile))
    assert out.profile == profile
    assert isinstance(out.profile[0], frozenset)
    assert isinstance(out.profile[2][7], Proposal)
    assert _roundtrip(M.ProfileMessage(src=1, dst=2, profile=None)).profile is None


def test_span_metadata_rides_the_envelope():
    msg = M.Notification(src=1, dst=2, topic=3, event_id=4)
    for span in (("e5", "n1x0", "flood"), ("e5", 17, "relay"), ("e5", None, "publish")):
        msg.span = span
        decoded, _ = wire.decode(wire.encode(msg, seq=1))
        assert decoded == msg and decoded.span == span
    # The trailer sits outside the body: same frame plus a flag bit.
    bare = wire.encode(M.Notification(src=1, dst=2, topic=3, event_id=4), 1)
    spanned = wire.encode(msg, 1)
    assert spanned[2:len(bare)] == bare[2:] and spanned[1] == bare[1] | 0x80


def test_encoding_is_deterministic():
    msg = M.ProfileMessage(
        src=1, dst=2,
        profile=(frozenset({5, 3}), 1, {2: Proposal(1, 2, 3, 4)}, True),
    )
    assert wire.encode(msg, 3) == wire.encode(msg, 3)


def test_wrong_version_and_garbage_rejected():
    good = wire.encode(M.Probe(src=0, dst=1, target=1), 1)
    v1 = json.dumps(
        {"v": 1, "k": "Probe", "n": 1, "s": 0, "d": 1, "p": {"target": 1, "incarnation": 0}},
        separators=(",", ":"), sort_keys=True,
    ).encode()
    for datagram in (
        b"",
        b"\xff\x00 not a frame",
        v1,                                 # a version-1 JSON datagram
        b"\x02" + good[1:],                 # a version-2 frame
        bytes([wire.WIRE_VERSION + 1]) + good[1:],   # a future version
        good[:1] + b"\x7f" + good[2:],      # unknown kind code
        good[:1] + b"\x80" + good[2:],      # span bit on an ack code
        good[:1] + b"\x00" + good[2:],      # a data frame relabelled as an ack
        good[:-1],                          # truncated
        good + b"\x00",                     # trailing bytes
        wire.encode_ack([1], 0, 1)[:26],    # an ack without its count
        wire.encode_ack([1], 0, 1) + b"\x00",
        wire.encode_ack([1, 2], 0, 1)[:-1], # the count overruns the datagram
    ):
        with pytest.raises(wire.WireError):
            wire.decode(datagram)


def test_encode_raises_only_wire_error():
    class Unregistered(M.Message):
        pass

    for msg in (
        Unregistered(src=0, dst=1),
        M.Notification(src=0, dst=1, topic=1 << 63),            # i64 overflow
        M.RelayInstall(src=0, dst=1, topic=1, target_id=-1),    # ring ids are u64
        M.RelayInstall(src=0, dst=1, topic=1, target_id=1 << 64),
        M.Probe(src=0, dst=1, target="x"),
        M.PsExchangeRequest(src=0, dst=1, view=[(1, 2)]),
        M.ProfileMessage(src=0, dst=1, profile=(frozenset(), 0, {1: "p"}, False)),
        M.PullReply(src=0, dst=1, event_id=1, payload="text"),
    ):
        with pytest.raises(wire.WireError):
            wire.encode(msg, 1)
    with pytest.raises(wire.WireError):
        wire.encode(M.Probe(src=0, dst=1, target=1), -1)
    for seqs in ([], [-1], [1, 1 << 64], 5, [1] * ((1 << 16) + 1)):  # ...the count is a u16
        with pytest.raises(wire.WireError):
            wire.encode_ack(seqs, 0, 1)


def test_ack_roundtrip():
    ack = wire.encode_ack([42], src=3, dst=9)
    assert wire.decode(ack) == (None, (42,))
    # The fixed header every frame starts with (seq = the first of the
    # run), then a count of the further seqs: zero here.
    assert len(ack) == 28
    assert ack[2:26] == wire.encode(M.Probe(src=3, dst=9, target=0), 42)[2:26]
    assert ack[26:] == b"\x00\x00"
    # A run keeps its order and its repeats (duplicates are re-acked).
    run = [42, 7, 42, (1 << 64) - 1]
    ack = wire.encode_ack(run, src=3, dst=9)
    assert wire.decode(ack) == (None, tuple(run))
    assert len(ack) == 28 + 8 * (len(run) - 1)


def test_payload_fields_excludes_framing():
    assert payload_fields(M.Notification) == ("topic", "event_id", "hops", "publisher")
    assert payload_fields(M.Probe) == ("target", "incarnation")
    for _code, cls, _layout, _tail, fields in wire.MESSAGE_KINDS:
        assert fields == payload_fields(cls)
        assert not set(fields) & {"src", "dst", "size"}


def test_golden_frames_decode_and_reencode():
    # A layout edit without a WIRE_VERSION bump fails here.
    assert GOLDEN["wire_version"] == wire.WIRE_VERSION
    covered, acks = set(), []
    for entry in GOLDEN["frames"]:
        frame = bytes.fromhex(entry["hex"])
        if entry["kind"] == "ack":
            assert wire.decode(frame) == (None, tuple(entry["seqs"]))
            assert wire.encode_ack(entry["seqs"], **entry["args"]) == frame
            acks.append(len(entry["seqs"]))
            continue
        expected = build_golden(entry)
        msg, seq = wire.decode(frame)
        assert (msg, seq, msg.span) == (expected, entry["seq"], expected.span), entry
        assert wire.encode(msg, seq) == frame, entry
        covered.add(type(msg))
    assert covered == {row[1] for row in wire.MESSAGE_KINDS}
    assert any(e["span"] for e in GOLDEN["frames"])
    assert 1 in acks and max(acks) > 1  # a one-seq and a many-seq ack
