"""Tests for the metrics registry."""

import pytest

from repro.obs import Counter, Gauge, Histogram, MetricsRegistry


class TestCounter:
    def test_starts_at_zero_and_increments(self):
        c = Counter()
        assert c.value == 0.0
        c.inc()
        c.inc(2.5)
        assert c.value == 3.5

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            Counter().inc(-1)


class TestGauge:
    def test_set_holds_the_last_value(self):
        g = Gauge()
        g.set(10)
        g.set(-2)  # a gauge goes down as well as up
        assert g.value == -2.0


class TestHistogram:
    def test_le_bucket_semantics(self):
        h = Histogram(buckets=(1, 5, 10))
        for v in (0.5, 1, 3, 5, 7, 10, 100):
            h.observe(v)
        d = h.to_dict()
        # Cumulative: <=1 gets {0.5, 1}; <=5 adds {3, 5}; <=10 adds {7, 10};
        # 100 lands in the implicit +Inf slot (count only).
        assert d["buckets"] == {"1": 2, "5": 4, "10": 6}
        assert d["count"] == 7

    def test_stats(self):
        h = Histogram(buckets=(10,))
        for v in (2, 4, 6):
            h.observe(v)
        assert h.count == 3
        assert h.sum == 12.0
        assert h.min == 2.0
        assert h.max == 6.0
        assert h.mean() == 4.0

    def test_empty_mean_is_zero(self):
        assert Histogram().mean() == 0.0


class TestMetricsRegistry:
    def test_instruments_memoised_by_name_and_labels(self):
        r = MetricsRegistry()
        assert r.counter("x") is r.counter("x")
        assert r.counter("x", system="vitis") is r.counter("x", system="vitis")
        assert r.counter("x") is not r.counter("x", system="vitis")
        assert r.counter("x", a="1", b="2") is r.counter("x", b="2", a="1")
        assert r.gauge("g") is r.gauge("g")
        assert r.histogram("h") is r.histogram("h")

    def test_len_counts_all_instruments(self):
        r = MetricsRegistry()
        r.counter("c")
        r.counter("c", system="rvr")
        r.gauge("g")
        r.histogram("h")
        assert len(r) == 4

    def test_to_dict_renders_label_keys(self):
        r = MetricsRegistry()
        r.counter("lookups_total", system="vitis").inc(3)
        r.gauge("live_nodes").set(42)
        r.histogram("hops", buckets=(1, 2)).observe(1)
        d = r.to_dict()
        assert d["counters"] == {"lookups_total{system=vitis}": 3.0}
        assert d["gauges"] == {"live_nodes": 42.0}
        assert d["histograms"]["hops"]["count"] == 1

    def test_to_dict_is_json_serialisable(self):
        import json

        r = MetricsRegistry()
        r.counter("c", k="v").inc()
        r.histogram("h").observe(7)
        json.dumps(r.to_dict())


class TestQuantile:
    def test_empty_histogram_has_no_quantiles(self):
        h = Histogram(buckets=(1, 5))
        assert h.quantile(0.5) is None
        assert h.to_dict()["p50"] is None

    def test_rejects_out_of_range(self):
        h = Histogram()
        h.observe(1)
        with pytest.raises(ValueError):
            h.quantile(-0.1)
        with pytest.raises(ValueError):
            h.quantile(1.1)

    def test_interpolates_within_buckets(self):
        h = Histogram(buckets=(10, 20, 30))
        for v in (2, 4, 6, 8, 12, 14, 22, 28):
            h.observe(v)
        # Half the mass sits at or below the first bucket boundary.
        assert h.quantile(0.5) <= 10.0
        assert h.quantile(0.0) == h.min
        assert h.quantile(1.0) == h.max

    def test_clamped_to_observed_range(self):
        # Everything lands in one wide bucket: interpolation must not
        # report values outside [min, max].
        h = Histogram(buckets=(100,))
        h.observe(41)
        h.observe(43)
        for q in (0.5, 0.9, 0.99):
            assert 41.0 <= h.quantile(q) <= 43.0

    def test_to_dict_quantiles_ordered(self):
        h = Histogram(buckets=(1, 2, 4, 8, 16))
        for v in (1, 1, 2, 3, 5, 8, 13):
            h.observe(v)
        d = h.to_dict()
        assert d["p50"] <= d["p90"] <= d["p99"]


class TestDeltaSince:
    def test_first_delta_is_full_snapshot(self):
        r = MetricsRegistry()
        r.counter("c").inc(3)
        r.gauge("g").set(7)
        r.histogram("h", buckets=(1, 2)).observe(2)
        delta, cursor = r.delta_since(None)
        m = MetricsRegistry()
        m.merge(delta)
        assert m.snapshot() == r.snapshot()
        assert cursor is not None

    def test_unchanged_registry_yields_none(self):
        r = MetricsRegistry()
        r.counter("c").inc()
        _, cursor = r.delta_since(None)
        delta, cursor2 = r.delta_since(cursor)
        assert delta is None

    def test_delta_carries_only_changed_instruments(self):
        r = MetricsRegistry()
        r.counter("changed").inc()
        r.counter("frozen").inc()
        _, cursor = r.delta_since(None)
        r.counter("changed").inc(4)
        delta, _ = r.delta_since(cursor)
        names = [name for name, _key, _v in delta["counters"]]
        assert names == ["changed"]
        # Counters stream increments, not absolutes.
        assert delta["counters"][0][2] == 4.0

    def test_merged_deltas_equal_final_snapshot(self):
        # Integer observations so counter/sum folds are float-exact: the
        # stream-of-deltas must rebuild the registry bit for bit.
        import random

        rng = random.Random(42)
        r = MetricsRegistry()
        folded = MetricsRegistry()
        cursor = None
        for _round in range(20):
            for _ in range(rng.randrange(0, 8)):
                r.counter("sent", cls=rng.choice("ab")).inc(rng.randrange(1, 5))
                r.gauge("depth").set(rng.randrange(0, 50))
                r.histogram("hops", buckets=(1, 2, 4, 8)).observe(
                    rng.randrange(0, 12))
            delta, cursor = r.delta_since(cursor)
            if delta is not None:
                folded.merge(delta)
        assert folded.snapshot() == r.snapshot()

    def test_gauges_stream_current_value(self):
        r = MetricsRegistry()
        r.gauge("depth").set(10)
        _, cursor = r.delta_since(None)
        r.gauge("depth").set(3)
        delta, _ = r.delta_since(cursor)
        assert delta["gauges"] == [["depth", [], 3.0]]
        m = MetricsRegistry()
        m.gauge("depth").set(99)
        m.merge(delta)
        assert m.gauge("depth").value == 3.0
