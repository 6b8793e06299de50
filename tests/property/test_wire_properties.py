"""Property-based tests for the wire codec, written against its API
(``encode`` / ``decode`` / ``encode_ack`` / ``WireError``), not its bytes:
any codec that replaces this one inherits them unchanged.  The hostility
properties cover message frames and ack runs alike."""

import random

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.core.gateway import Proposal
from repro.net import wire
from repro.net.transport import UdpTransport
from repro.sim import messages as M

i64 = st.integers(-(1 << 63), (1 << 63) - 1)
u64 = st.integers(0, (1 << 64) - 1)  # ring ids and sequence numbers
triples = st.lists(st.tuples(i64, u64, i64), max_size=60)
# Small ints collide in a set's hash table, so insertion order shows.
topics = i64 | st.integers(0, 64)
proposals = st.dictionaries(topics, st.builds(Proposal, i64, u64, i64, i64), max_size=40)
profiles = st.tuples(st.frozensets(topics, max_size=40), i64, proposals, st.booleans())
target = {"target": i64, "incarnation": i64}

#: Payload strategies of every kind the codec registers.
PAYLOADS = {
    M.Notification: {"topic": i64, "event_id": i64, "hops": i64, "publisher": i64},
    M.ProfileMessage: {"profile": st.none() | profiles},
    M.PsExchangeRequest: {"view": triples},
    M.PsExchangeReply: {"view": triples},
    M.RtExchangeRequest: {"buffer": triples},
    M.RtExchangeReply: {"buffer": triples},
    M.RelayInstall: {"topic": i64, "target_id": u64, "origin": i64, "hops": i64},
    M.Probe: target,
    M.ProbeReq: {"target": i64, "origin": i64},
    M.ProbeAck: target,
    M.Suspicion: target,
    M.Refutation: target,
}
label = st.text(max_size=12)
spans = st.none() | st.tuples(label, st.none() | i64 | label, label)


@st.composite
def messages_of(draw, kinds):
    cls = draw(st.sampled_from(kinds))
    msg = draw(st.builds(cls, src=i64, dst=i64, **PAYLOADS[cls]))
    msg.span = draw(spans)
    return msg


def messages():
    """Any registered kind — half of the time a ``ProfileMessage``, a
    third of real control traffic and the kind with the most layout."""
    kinds = sorted(PAYLOADS, key=lambda c: c.__name__)
    return messages_of(kinds) | messages_of([M.ProfileMessage])


#: Ack runs: up to the transport's drain bound and past it.
seq_runs = st.lists(u64, min_size=1, max_size=80)


def frames():
    """Any datagram the codec produces: a message frame, or an ack run."""
    return st.builds(wire.encode, messages(), u64) | st.builds(wire.encode_ack, seq_runs, i64, i64)


def decodes_or_rejects(datagram):
    """The decoded ``(message, seq)`` pair, or None for a rejected
    datagram; anything but ``WireError`` propagates and fails the test."""
    try:
        return wire.decode(datagram)
    except wire.WireError:
        return None


def test_every_registered_kind_has_a_strategy():
    assert set(PAYLOADS) == {row[1] for row in wire.MESSAGE_KINDS}


class TestRoundTrip:
    @settings(max_examples=400, deadline=None)
    @given(messages(), u64)
    def test_decode_inverts_encode(self, msg, seq):
        out, out_seq = wire.decode(wire.encode(msg, seq))
        assert (out, out_seq, out.span) == (msg, seq, msg.span)
        assert type(out) is type(msg)
        if isinstance(msg, M.ProfileMessage) and msg.profile is not None:
            subs, _, props, is_reply = out.profile
            assert isinstance(subs, frozenset) and isinstance(is_reply, bool)
            assert all(isinstance(p, Proposal) for p in props.values())
        for t in getattr(out, "view", None) or getattr(out, "buffer", None) or ():
            assert isinstance(t, tuple)

    @given(seq_runs, i64, i64)
    def test_ack_carries_its_sequence_number(self, seqs, src, dst):
        assert wire.decode(wire.encode_ack(seqs, src, dst)) == (None, tuple(seqs))


class TestDeterminism:
    @settings(max_examples=400, deadline=None)
    @given(messages(), u64)
    def test_reencoding_the_decoded_message_is_identical(self, msg, seq):
        frame = wire.encode(msg, seq)
        assert wire.encode(wire.decode(frame)[0], seq) == frame

    @settings(deadline=None)
    @given(profiles, st.randoms(use_true_random=False))
    def test_insertion_order_does_not_show(self, profile, rnd):
        subs, version, props, is_reply = profile
        sub_list, prop_list = list(subs), list(props.items())
        rnd.shuffle(sub_list)
        rnd.shuffle(prop_list)
        shuffled = (frozenset(sub_list), version, dict(prop_list), is_reply)
        assert shuffled == profile
        assert wire.encode(M.ProfileMessage(1, 2, profile=shuffled), 5) == wire.encode(
            M.ProfileMessage(1, 2, profile=profile), 5
        )


class _Socket:
    def __init__(self):
        self.sent = []

    def sendto(self, data, addr):
        self.sent.append(data)


def _feed(datagram):
    """A socket-less transport that was handed ``datagram`` and flushed
    its acks."""
    t = UdpTransport(1, random.Random(0))
    t._sock, delivered = _Socket(), []
    t.on_message = delivered.append
    t._on_datagram(datagram, ("127.0.0.1", 9))
    t._flush_acks()
    return t, delivered


def _assert_dropped(datagram):
    t, delivered = _feed(datagram)
    assert (t.malformed, delivered, t._sock.sent) == (1, [], [])


class TestHostility:
    @settings(max_examples=400, deadline=None)
    @given(st.binary(max_size=400))
    def test_arbitrary_bytes_decode_or_are_rejected(self, datagram):
        rejected = decodes_or_rejects(datagram) is None
        t, delivered = _feed(datagram)
        assert t.malformed == rejected
        if rejected:
            assert delivered == [] and t._sock.sent == []

    @settings(max_examples=300, deadline=None)
    @given(frames(), st.data())
    def test_every_proper_prefix_is_rejected(self, frame, data):
        cut = frame[: data.draw(st.integers(0, len(frame) - 1))]
        assert decodes_or_rejects(cut) is None
        _assert_dropped(cut)

    @settings(max_examples=300, deadline=None)
    @given(frames(), st.binary(min_size=1, max_size=16))
    def test_appended_bytes_are_rejected(self, frame, extra):
        padded = frame + extra
        assert decodes_or_rejects(padded) is None
        _assert_dropped(padded)

    @settings(max_examples=400, deadline=None)
    @given(frames(), st.data())
    def test_a_flipped_bit_decodes_or_is_rejected(self, frame, data):
        frame = bytearray(frame)
        frame[data.draw(st.integers(0, len(frame) - 1))] ^= 1 << data.draw(st.integers(0, 7))
        flipped = bytes(frame)
        rejected = decodes_or_rejects(flipped) is None
        t, delivered = _feed(flipped)
        assert t.malformed == rejected
        if rejected:
            assert delivered == [] and t._sock.sent == []


not_an_i64 = st.sampled_from([1 << 63, -(1 << 63) - 1, 1 << 64, "7", 1.5, None, [1], b"7"])


def _fits_u64(value):
    return isinstance(value, int) and 0 <= value < 1 << 64


class TestEncodeRefusesWhatTheFrameCannotCarry:
    @settings(deadline=None)
    @given(messages(), not_an_i64, st.data())
    def test_bad_scalar_field(self, msg, bad, data):
        scalars = ["src", "dst"] + [
            name for name in PAYLOADS[type(msg)]
            if name not in ("profile", "view", "buffer", "trace", "payload")
        ]
        name = data.draw(st.sampled_from(scalars))
        assume(not (name == "target_id" and _fits_u64(bad)))
        setattr(msg, name, bad)
        with pytest.raises(wire.WireError):
            wire.encode(msg, 1)

    @given(not_an_i64, st.integers(0, 2))
    def test_bad_descriptor_field(self, bad, column):
        assume(not (column == 1 and _fits_u64(bad)))  # node_id is a ring id
        triple = [1, 2, 3]
        triple[column] = bad
        with pytest.raises(wire.WireError):
            wire.encode(M.PsExchangeRequest(1, 2, view=[(4, 5, 6), tuple(triple)]), 1)

    @given(not_an_i64, st.integers(0, 5))
    def test_bad_profile_field(self, bad, where):
        assume(not (where == 1 and _fits_u64(bad)))  # gw_id is a ring id
        fields = [1, 2, 3, 4]  # gw_addr, gw_id, parent_addr, hops
        subs, version, topic = [7], 0, 9
        if where < 4:
            fields[where] = bad
        elif where == 4:
            version = bad
        elif isinstance(bad, list):
            return  # unhashable: cannot even enter a frozenset
        else:
            subs = [bad]
        profile = (frozenset(subs), version, {topic: Proposal(*fields)}, False)
        with pytest.raises(wire.WireError):
            wire.encode(M.ProfileMessage(1, 2, profile=profile), 1)

    @given(st.sampled_from([-1, 1 << 64, "1", None, 1.0]))
    def test_bad_sequence_number(self, seq):
        with pytest.raises(wire.WireError):
            wire.encode(M.Probe(1, 2, target=3), seq)

    def test_ring_ids_are_unsigned(self):
        for msg in (
            M.RelayInstall(1, 2, topic=1, target_id=-1),
            M.PsExchangeReply(1, 2, view=[(1, -1, 0)]),
            M.ProfileMessage(1, 2, profile=(frozenset(), 0, {1: Proposal(1, -1, 1, 1)}, False)),
        ):
            with pytest.raises(wire.WireError):
                wire.encode(msg, 1)
