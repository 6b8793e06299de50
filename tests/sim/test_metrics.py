"""Tests for the metric collectors."""

from collections import Counter

import pytest

from repro.sim.metrics import DisseminationRecord, MetricsCollector, restrict_record


def record(topic=1, subscribers=(2, 3, 4), delivered=None, interested=None, relay=None):
    return DisseminationRecord(
        topic=topic,
        event_id=0,
        publisher=1,
        subscribers=frozenset(subscribers),
        delivered_hops=dict(delivered or {}),
        interested_msgs=Counter(interested or {}),
        relay_msgs=Counter(relay or {}),
    )


class TestDisseminationRecord:
    def test_message_totals(self):
        r = record(interested={2: 2, 3: 1}, relay={9: 3})
        assert r.total_messages == 6
        assert r.total_relay_messages == 3

    def test_counts(self):
        r = record(delivered={2: 1})
        assert r.n_subscribers == 3
        assert r.n_delivered == 1


class TestMetricsCollector:
    def test_empty_defaults(self):
        c = MetricsCollector()
        assert c.hit_ratio() == 1.0
        assert c.traffic_overhead_pct() == 0.0
        assert c.mean_delay() == 0.0
        assert len(c) == 0

    def test_hit_ratio_aggregates_over_events(self):
        c = MetricsCollector()
        c.add(record(delivered={2: 1, 3: 1, 4: 1}))
        c.add(record(delivered={}))
        assert c.hit_ratio() == pytest.approx(0.5)

    def test_overhead_pct(self):
        c = MetricsCollector()
        c.add(record(interested={2: 3}, relay={9: 1}))
        assert c.traffic_overhead_pct() == pytest.approx(25.0)

    def test_mean_and_max_delay(self):
        c = MetricsCollector()
        c.add(record(delivered={2: 1, 3: 3}))
        c.add(record(delivered={4: 2}))
        assert c.mean_delay() == pytest.approx(2.0)
        assert c.max_delay() == 3

    def test_extend(self):
        c = MetricsCollector()
        c.extend([record(), record()])
        assert len(c) == 2

    def test_per_node_overhead(self):
        c = MetricsCollector()
        c.add(record(interested={2: 1, 9: 1}, relay={9: 3}))
        per = c.per_node_overhead()
        assert per[2] == 0.0
        assert per[9] == pytest.approx(75.0)

    def test_overhead_histogram_fractions_sum_to_one(self):
        c = MetricsCollector()
        c.add(record(interested={2: 1, 3: 1}, relay={9: 2, 3: 1}))
        _, fractions = c.overhead_histogram()
        assert fractions.sum() == pytest.approx(1.0)

    def test_overhead_histogram_includes_100pct_nodes(self):
        c = MetricsCollector()
        c.add(record(relay={9: 5}))
        edges, fractions = c.overhead_histogram()
        assert fractions[-1] == pytest.approx(1.0)

    def test_overhead_histogram_empty(self):
        edges, fractions = MetricsCollector().overhead_histogram()
        assert fractions.sum() == 0.0

    def test_summary_keys(self):
        s = MetricsCollector().summary()
        assert set(s) == {"events", "hit_ratio", "traffic_overhead_pct", "mean_delay_hops"}


class TestRestrictRecord:
    def test_restricts_denominator(self):
        r = record(delivered={2: 1, 3: 1})
        out = restrict_record(r, [2])
        assert out.subscribers == frozenset({2})
        assert out.delivered_hops == {2: 1}
        assert out.n_delivered == out.n_subscribers == 1

    def test_traffic_untouched(self):
        r = record(interested={2: 1}, relay={9: 2})
        out = restrict_record(r, [])
        assert out.total_messages == 3

    def test_eligible_superset_is_noop(self):
        r = record(delivered={2: 1})
        out = restrict_record(r, [2, 3, 4, 99])
        assert out.subscribers == r.subscribers
        assert out.delivered_hops == r.delivered_hops
