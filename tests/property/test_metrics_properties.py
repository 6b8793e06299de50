"""Property-based tests for metric aggregation."""

from collections import Counter

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.metrics import DisseminationRecord, MetricsCollector, restrict_record

addresses = st.integers(min_value=0, max_value=40)


@st.composite
def records(draw):
    subscribers = draw(st.frozensets(addresses, max_size=15))
    delivered = draw(st.lists(st.sampled_from(sorted(subscribers)), unique=True))\
        if subscribers else []
    hops = {a: draw(st.integers(min_value=1, max_value=12)) for a in delivered}
    interested = Counter(dict(draw(st.dictionaries(addresses, st.integers(1, 5), max_size=10))))
    relay = Counter(dict(draw(st.dictionaries(addresses, st.integers(1, 5), max_size=10))))
    return DisseminationRecord(
        topic=draw(st.integers(0, 100)),
        event_id=draw(st.integers(0, 100)),
        publisher=draw(addresses),
        subscribers=subscribers,
        delivered_hops=hops,
        interested_msgs=interested,
        relay_msgs=relay,
    )


class TestAggregation:
    @given(st.lists(records(), max_size=15))
    @settings(max_examples=60)
    def test_hit_ratio_in_unit_interval(self, recs):
        c = MetricsCollector()
        c.extend(recs)
        assert 0.0 <= c.hit_ratio() <= 1.0

    @given(st.lists(records(), max_size=15))
    @settings(max_examples=60)
    def test_overhead_in_percent_range(self, recs):
        c = MetricsCollector()
        c.extend(recs)
        assert 0.0 <= c.traffic_overhead_pct() <= 100.0

    @given(st.lists(records(), max_size=15))
    @settings(max_examples=60)
    def test_mean_delay_bounded_by_max(self, recs):
        c = MetricsCollector()
        c.extend(recs)
        assert c.mean_delay() <= c.max_delay()

    @given(st.lists(records(), max_size=15))
    @settings(max_examples=60)
    def test_histogram_is_distribution(self, recs):
        c = MetricsCollector()
        c.extend(recs)
        _, fractions = c.overhead_histogram()
        total = fractions.sum()
        assert total == 0.0 or abs(total - 1.0) < 1e-9

    @given(st.lists(records(), max_size=10))
    @settings(max_examples=40)
    def test_order_independence(self, recs):
        a, b = MetricsCollector(), MetricsCollector()
        a.extend(recs)
        b.extend(list(reversed(recs)))
        assert a.summary() == b.summary()


# ----------------------------------------------------------------------
# Differential: the collector against a naive transcription of section IV
# ----------------------------------------------------------------------
few_addresses = st.integers(min_value=0, max_value=6)  # overlap is the point
tallies = st.dictionaries(few_addresses, st.integers(0, 4), max_size=5)


@st.composite
def overlapping_records(draw):
    """Records whose tallies collide on a handful of addresses, built
    from plain dicts or from ``Counter``s (``add`` takes any mapping),
    empty tallies and zero counts included."""
    build = draw(st.sampled_from([dict, Counter]))
    subscribers = draw(st.frozensets(few_addresses, max_size=5))
    hops = draw(st.dictionaries(st.sampled_from(sorted(subscribers)), st.integers(1, 9)))\
        if subscribers else {}
    return DisseminationRecord(
        topic=0,
        event_id=0,
        publisher=draw(few_addresses),
        subscribers=subscribers,
        delivered_hops=hops,
        interested_msgs=build(draw(tallies)),
        relay_msgs=build(draw(tallies)),
    )


operations = st.lists(
    st.tuples(st.just("add"), overlapping_records())
    | st.tuples(st.just("extend"), st.lists(overlapping_records(), max_size=4))
    | st.tuples(st.just("reset"), st.none()),
    max_size=12,
)


class NaiveCollector:
    """The metrics recomputed from the raw record list on every call."""

    def __init__(self):
        self.records = []

    def _tallies(self):
        interested, relay = Counter(), Counter()
        for r in self.records:
            for a, n in r.interested_msgs.items():
                interested[a] += n
            for a, n in r.relay_msgs.items():
                relay[a] += n
        return interested, relay

    def summary(self):
        interested, relay = self._tallies()
        slots = sum(len(r.subscribers) for r in self.records)
        hops = [h for r in self.records for h in r.delivered_hops.values()]
        n_relay, n_all = sum(relay.values()), sum(relay.values()) + sum(interested.values())
        return {
            "events": float(len(self.records)),
            "hit_ratio": len(hops) / slots if slots else 1.0,
            "traffic_overhead_pct": 100.0 * n_relay / n_all if n_all else 0.0,
            "mean_delay_hops": sum(hops) / len(hops) if hops else 0.0,
        }

    def per_node_overhead(self):
        interested, relay = self._tallies()
        return {
            a: 100.0 * relay[a] / (relay[a] + interested[a])
            for a in set(interested) | set(relay)
            if relay[a] + interested[a]
        }

    def overhead_histogram(self):
        per_node = list(self.per_node_overhead().values())
        counts, _ = np.histogram(per_node, bins=np.arange(0.0, 101.0, 10.0))
        return counts / len(per_node) if per_node else np.zeros(10)


class TestCollectorDifferential:
    @given(operations)
    @settings(max_examples=150, deadline=None)
    def test_any_interleaving_matches_the_naive_transcription(self, ops):
        real, naive = MetricsCollector(), NaiveCollector()
        for op, arg in ops:
            if op == "add":
                real.add(arg)
                naive.records.append(arg)
            elif op == "extend":
                real.extend(arg)
                naive.records.extend(arg)
            else:
                real = MetricsCollector()
                naive.records.clear()
            assert len(real) == len(naive.records)
            assert real.summary() == naive.summary()
            assert real.per_node_overhead() == naive.per_node_overhead()
            assert np.array_equal(real.overhead_histogram()[1], naive.overhead_histogram())


class TestRestriction:
    @given(records(), st.frozensets(addresses, max_size=20))
    @settings(max_examples=60)
    def test_restriction_never_lowers_per_event_quality(self, rec, keep):
        out = restrict_record(rec, keep)
        assert out.subscribers <= rec.subscribers
        assert set(out.delivered_hops) <= set(rec.delivered_hops)
        assert out.total_messages == rec.total_messages

    @given(records())
    @settings(max_examples=60)
    def test_full_restriction_is_identity(self, rec):
        out = restrict_record(rec, rec.subscribers)
        assert out.subscribers == rec.subscribers
        assert out.delivered_hops == rec.delivered_hops

    @given(overlapping_records(), st.frozensets(few_addresses))
    @settings(max_examples=60)
    def test_restriction_copies_the_tallies(self, rec, keep):
        before = dict(rec.interested_msgs), dict(rec.relay_msgs)
        out = restrict_record(rec, keep)
        assert (out.interested_msgs, out.relay_msgs) == before
        out.interested_msgs[-1] = 1
        out.relay_msgs[-1] = 1
        assert (dict(rec.interested_msgs), dict(rec.relay_msgs)) == before


# ----------------------------------------------------------------------
# The running totals and the fold-on-read against an eager collector
# ----------------------------------------------------------------------
class EagerCollector:
    """Every tally folded at ``add``, and the overhead summed over the
    per-node tallies at each read: the eager reference a collector that
    folds on read must equal."""

    def __init__(self):
        self.records = []
        self._interested, self._relay = {}, {}

    def add(self, record):
        self.records.append(record)
        for agg, tally in (self._interested, record.interested_msgs), (self._relay, record.relay_msgs):
            for a, n in tally.items():
                agg[a] = agg.get(a, 0) + n

    def reset(self):
        self.records.clear()
        self._interested.clear()
        self._relay.clear()

    def traffic_overhead_pct(self):
        relay = sum(self._relay.values())
        total = relay + sum(self._interested.values())
        return 100.0 * relay / total if total else 0.0

    def per_node_overhead(self):
        out = {}
        for addr in set(self._interested) | set(self._relay):
            relay = self._relay.get(addr, 0)
            total = relay + self._interested.get(addr, 0)
            if total:
                out[addr] = 100.0 * relay / total
        return out


READERS = ("traffic_overhead_pct", "per_node_overhead", "overhead_histogram", "summary")
wide_tallies = st.dictionaries(st.integers(0, 2000), st.integers(0, 4), max_size=12)


@st.composite
def spread_records(draw):
    """Records over a wide address range, so that the per-node dict's
    insertion order shows in ``per_node_overhead``'s iteration order."""
    return DisseminationRecord(
        topic=0, event_id=0, publisher=0,
        interested_msgs=draw(wide_tallies), relay_msgs=draw(wide_tallies),
    )


interleavings = st.lists(
    st.tuples(st.just("add"), overlapping_records() | spread_records())
    | st.tuples(st.just("extend"), st.lists(overlapping_records() | spread_records(), max_size=4))
    | st.tuples(st.just("reset"), st.none())
    | st.tuples(st.just("read"), st.sampled_from(READERS)),
    max_size=20,
)


class TestFoldOnRead:
    @given(interleavings)
    @settings(max_examples=200, deadline=None)
    def test_reads_anywhere_in_an_interleaving_match_the_eager_fold(self, ops):
        real, eager = MetricsCollector(), EagerCollector()
        for op, arg in ops:
            if op == "add":
                real.add(arg)
                eager.add(arg)
            elif op == "extend":
                real.extend(arg)
                for r in arg:
                    eager.add(r)
            elif op == "reset":
                real = MetricsCollector()
                eager.reset()
            elif arg == "per_node_overhead":
                # Item order too: Fig. 5's rows list the values in it.
                assert list(real.per_node_overhead().items()) \
                    == list(eager.per_node_overhead().items())
            elif arg == "overhead_histogram":
                per_node = list(eager.per_node_overhead().values())
                counts, _ = np.histogram(per_node, bins=np.arange(0.0, 101.0, 10.0))
                expected = counts / len(per_node) if per_node else np.zeros(10)
                assert np.array_equal(real.overhead_histogram()[1], expected)
            else:
                pct = eager.traffic_overhead_pct()
                got = getattr(real, arg)()
                assert (got["traffic_overhead_pct"] if arg == "summary" else got) == pct
        # A final read of every reader agrees too.
        assert real.traffic_overhead_pct() == eager.traffic_overhead_pct()
        assert list(real.per_node_overhead().items()) == list(eager.per_node_overhead().items())
