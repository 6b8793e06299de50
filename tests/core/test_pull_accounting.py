"""Tests for notify-then-pull accounting (paper section III-C)."""

import pytest

from repro.core.dissemination import disseminate


def first_topic(p):
    return max(p.topics(), key=lambda t: len(p.subscribers(t)))


def handled(rec, addr):
    """Messages ``addr`` handled during one event."""
    return rec.interested_msgs.get(addr, 0) + rec.relay_msgs.get(addr, 0)


def receivers(rec):
    """The nodes that received the notification: one first receipt each."""
    return (set(rec.interested_msgs) | set(rec.relay_msgs)) - {rec.publisher}


class TestPullAccounting:
    def test_default_counts_no_pulls(self, converged_vitis):
        p = converged_vitis
        topic = first_topic(p)
        pub = sorted(p.subscribers(topic))[0]
        plain = disseminate(p, topic, pub)
        unpulled = disseminate(p, topic, pub, count_pulls=False)
        assert (plain.interested_msgs, plain.relay_msgs) == (
            unpulled.interested_msgs, unpulled.relay_msgs)

    def test_one_pull_per_first_receipt(self, converged_vitis):
        """Each receiver handles its pull's reply, and the publisher the
        requests of the nodes it notified first."""
        p = converged_vitis
        topic = first_topic(p)
        pub = sorted(p.subscribers(topic))[0]
        plain = disseminate(p, topic, pub)
        pulled = disseminate(p, topic, pub, count_pulls=True)
        assert receivers(pulled) == receivers(plain)
        for v in receivers(plain):
            assert handled(pulled, v) >= handled(plain, v) + 1
        assert handled(pulled, pub) > handled(plain, pub)

    def test_delivery_unchanged_by_pulls(self, converged_vitis):
        p = converged_vitis
        topic = first_topic(p)
        pub = sorted(p.subscribers(topic))[0]
        plain = disseminate(p, topic, pub)
        pulled = disseminate(p, topic, pub, count_pulls=True)
        assert plain.delivered_hops == pulled.delivered_hops

    def test_message_total_grows_by_two_per_pull(self, converged_vitis):
        p = converged_vitis
        topic = first_topic(p)
        pub = sorted(p.subscribers(topic))[0]
        plain = disseminate(p, topic, pub)
        pulled = disseminate(p, topic, pub, count_pulls=True)
        assert pulled.total_messages == plain.total_messages + 2 * len(receivers(plain))

    def test_overhead_shifts_only_modestly(self, converged_vitis):
        """Pull traffic follows the same edges as notifications, so the
        relay *proportion* moves only a little — the paper's
        notification-based overhead metric is representative."""
        p = converged_vitis
        topics = [t for t in p.topics() if len(p.subscribers(t)) >= 2][:20]
        def overhead(count_pulls):
            relay = total = 0
            for t in topics:
                pub = sorted(p.subscribers(t))[0]
                r = disseminate(p, t, pub, count_pulls=count_pulls)
                relay += r.total_relay_messages
                total += r.total_messages
            return 100.0 * relay / total
        assert overhead(True) == pytest.approx(overhead(False), abs=10.0)
