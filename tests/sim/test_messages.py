"""Tests for the message dataclasses."""

import pytest

from repro.sim.messages import (
    PRIO_CONTROL,
    PRIO_LOOKUP,
    PRIO_NOTIFY,
    PRIO_PULL,
    LookupMessage,
    Message,
    Notification,
    ProfileMessage,
    PsExchangeReply,
    PsExchangeRequest,
    PullReply,
    PullRequest,
    RelayInstall,
    RtExchangeReply,
    RtExchangeRequest,
    priority_of,
)


class TestBaseMessage:
    def test_kind_is_class_name(self):
        assert Message(src=0, dst=1).kind == "Message"
        assert Notification(src=0, dst=1).kind == "Notification"

    def test_default_size(self):
        assert Message(src=0, dst=1).size == 1

    def test_size_override(self):
        assert PullReply(src=0, dst=1, size=1000).size == 1000


class TestKindIsAClassConstant:
    """``kind`` is read once or more per simulated message, so it is set
    once per class — and must still be the class's own name everywhere
    a tally, a priority or the wire table keys on it."""

    def _message_classes(self):
        import repro.sim.messages as M

        found = [
            c for c in vars(M).values() if isinstance(c, type) and issubclass(c, Message)
        ]
        assert {Message, Notification, M.Probe} <= set(found)  # base, deployed, SWIM
        return found

    def test_every_class_answers_its_own_name(self):
        for cls in self._message_classes():
            assert cls.kind == cls.__name__
            assert cls(src=0, dst=1).kind == cls.__name__
            assert "kind" in vars(cls) and not isinstance(vars(cls)["kind"], property)

    def test_a_subclass_defined_later_gets_its_own(self):
        import dataclasses

        @dataclasses.dataclass
        class Gossip(Notification):
            rumour: str = ""

        assert Gossip.kind == "Gossip" and Notification.kind == "Notification"
        assert Gossip(src=0, dst=1, rumour="x").kind == "Gossip"

    def test_kind_is_not_a_dataclass_field(self):
        import dataclasses

        msg = Notification(src=0, dst=1, topic=3)
        assert "kind" not in {f.name for f in dataclasses.fields(msg)}
        assert "kind" not in vars(msg) and "kind" not in repr(msg)
        with pytest.raises(TypeError):
            Notification(src=0, dst=1, kind="Other")

    def test_priorities_still_answer_from_it(self):
        from repro.sim.messages import KIND_PRIORITY

        for cls in self._message_classes():
            if cls is not Message:
                assert priority_of(cls(src=0, dst=1).kind) == KIND_PRIORITY[cls.__name__]


class TestNotification:
    def test_fields(self):
        n = Notification(src=1, dst=2, topic=7, event_id=9, hops=3, publisher=1)
        assert (n.topic, n.event_id, n.hops, n.publisher) == (7, 9, 3, 1)

    def test_defaults_are_sentinels(self):
        n = Notification(src=1, dst=2)
        assert n.topic == -1 and n.event_id == -1 and n.hops == 0


class TestPullMessages:
    def test_request_reply_pair(self):
        req = PullRequest(src=2, dst=1, event_id=9)
        rep = PullReply(src=1, dst=2, event_id=9, payload=b"data")
        assert req.event_id == rep.event_id
        assert rep.payload == b"data"


class TestExchangeMessages:
    def test_ps_exchange_carries_views(self):
        req = PsExchangeRequest(src=0, dst=1, view=[(2, 22, 0)])
        rep = PsExchangeReply(src=1, dst=0, view=[(3, 33, 1)])
        assert req.view[0][0] == 2
        assert rep.view[0][2] == 1

    def test_rt_exchange_carries_buffers(self):
        req = RtExchangeRequest(src=0, dst=1, buffer=[(2, 22, 0)])
        rep = RtExchangeReply(src=1, dst=0, buffer=[])
        assert req.buffer and not rep.buffer

    def test_default_containers_are_independent(self):
        a = PsExchangeRequest(src=0, dst=1)
        b = PsExchangeRequest(src=0, dst=2)
        a.view.append((9, 9, 9))
        assert b.view == []


class TestRoutingMessages:
    def test_lookup_fields(self):
        m = LookupMessage(src=0, dst=1, target_id=55, origin=0, hops=2)
        assert m.target_id == 55 and m.hops == 2

    def test_relay_install_fields(self):
        m = RelayInstall(src=0, dst=1, topic=4, target_id=55, origin=0, hops=1)
        assert m.topic == 4 and m.origin == 0

    def test_profile_message_payload_roundtrip(self):
        payload = (frozenset({1, 2}), 3, {}, False)
        m = ProfileMessage(src=0, dst=1, profile=payload)
        assert m.profile[0] == frozenset({1, 2})


class TestPriorities:
    def test_class_ordering(self):
        assert PRIO_PULL < PRIO_NOTIFY < PRIO_LOOKUP < PRIO_CONTROL

    @pytest.mark.parametrize(
        "msg, prio",
        [
            (Notification(src=0, dst=1), PRIO_NOTIFY),
            (PullRequest(src=0, dst=1), PRIO_PULL),
            (PullReply(src=0, dst=1), PRIO_PULL),
            (LookupMessage(src=0, dst=1), PRIO_LOOKUP),
            (ProfileMessage(src=0, dst=1), PRIO_CONTROL),
            (PsExchangeRequest(src=0, dst=1), PRIO_CONTROL),
            (RtExchangeReply(src=0, dst=1), PRIO_CONTROL),
            (RelayInstall(src=0, dst=1), PRIO_CONTROL),
        ],
    )
    def test_message_priority(self, msg, prio):
        assert priority_of(msg.kind) == prio

    @pytest.mark.parametrize(
        "kind, prio",
        [
            ("notify", PRIO_NOTIFY),
            ("pull", PRIO_PULL),
            ("lookup", PRIO_LOOKUP),
            ("heartbeat", PRIO_CONTROL),
            ("relay_install", PRIO_CONTROL),
        ],
    )
    def test_fast_path_kind_priority(self, kind, prio):
        assert priority_of(kind) == prio

    def test_unknown_kind_defaults_to_data(self):
        assert priority_of("frobnicate") == PRIO_NOTIFY


class TestAbstractSize:
    def test_abstract_size_field_is_unchanged(self):
        # ``size`` is the abstract unit cost used by bytes_sent.
        assert Message(src=0, dst=1).size == 1
        assert Notification(src=0, dst=1).size == 1


class TestSpanMetadata:
    """The causal-tracing stamp must be invisible to untraced machinery."""

    def test_untraced_messages_carry_no_span(self):
        msg = Notification(src=0, dst=1, topic=3)
        assert msg.span is None
        assert "span" not in vars(msg)  # class default, no per-instance slot

    def test_span_is_not_a_dataclass_field(self):
        import dataclasses

        names = {f.name for f in dataclasses.fields(Notification)}
        assert "span" not in names

    def test_stamping_does_not_affect_equality_or_repr(self):
        plain = Notification(src=0, dst=1, topic=3)
        stamped = Notification(src=0, dst=1, topic=3)
        stamped.span = ("e0", 5, "flood")
        assert plain == stamped
        assert repr(plain) == repr(stamped)

    def test_constructor_rejects_span_kwarg(self):
        with pytest.raises(TypeError):
            Notification(src=0, dst=1, span=("e0", 1, "flood"))
