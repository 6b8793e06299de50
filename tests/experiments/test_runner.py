"""Tests for the build/converge/measure pipeline."""

import logging

import numpy as np
import pytest

from repro.core.config import VitisConfig
from repro.core.protocol import VitisProtocol
from repro.experiments.runner import (
    build_opt, build_rvr, build_vitis, converge, event_stream, measure,
)
from repro.sim.metrics import MetricsCollector
from repro.smallworld.ring import is_ring_converged
from repro.workloads.publication import power_law_rates, sample_topics
from tests.conftest import small_subscriptions

CFG = VitisConfig(rt_size=8)


@pytest.fixture(scope="module")
def subs():
    return small_subscriptions(seed=9)


class TestBuilders:
    def test_build_vitis_converges(self, subs):
        p = build_vitis(subs, CFG, seed=1, min_cycles=20, max_cycles=100)
        assert is_ring_converged(p.ids_by_address(), p.successor_map())
        # Relays installed: some topic has relay state somewhere.
        assert any(p.nodes[a].relay.parent or p.nodes[a].relay.children for a in p.live_addresses())

    def test_build_rvr(self, subs):
        p = build_rvr(subs, CFG, seed=1, min_cycles=20, max_cycles=100)
        topic = p.topics()[0]
        assert p.gateways_of(topic) == sorted(p.subscribers(topic))

    def test_build_opt_bounded(self, subs):
        p = build_opt(subs, CFG, seed=1, cycles=15, max_degree=6)
        assert max(p.degree_distribution()) <= 6

    def test_build_opt_unbounded(self, subs):
        p = build_opt(subs, CFG, seed=1, cycles=15, max_degree=None)
        assert p.nodes[0].max_degree is None

    def test_converge_stops_early_when_ring_ready(self, subs):
        p = build_vitis(subs, CFG, seed=1, min_cycles=20, max_cycles=200)
        cycles_run = p.cycle
        assert cycles_run < 200

    def test_converge_tolerates_series_clock_rewind(self, subs):
        # Several trials share one telemetry under bench and
        # --metrics-out sweeps; a fast-converging trial after a slow one
        # must not crash the run-level ring_converged probe series (its
        # clock is per-trial cycle counts).  Rewinding samples are
        # skipped, non-rewinding ones still land.
        from repro import obs
        from repro.obs.telemetry import Telemetry

        tel = Telemetry()
        tel.series.record("ring_converged", 500.0, 0.0)
        with obs.scope(tel):
            build_vitis(subs, CFG, seed=1, min_cycles=20, max_cycles=100)
        assert tel.series.latest_time("ring_converged") == 500.0


    def test_a_capped_warm_up_is_logged_as_a_warning(self, subs, caplog):
        # Ten cycles are never enough for this ring: the cap binds.
        p = VitisProtocol(subs, CFG, seed=1, election_every=0, relay_every=0)
        with caplog.at_level(logging.DEBUG, logger="repro.experiments.runner"):
            cycles = converge(p, min_cycles=0, max_cycles=0)
        assert cycles == 0
        assert not is_ring_converged(p.ids_by_address(), p.successor_map())
        [rec] = caplog.records
        assert rec.levelno == logging.WARNING
        assert "not converged" in rec.getMessage()

    def test_a_converged_warm_up_stays_at_debug(self, subs, caplog):
        p = VitisProtocol(subs, CFG, seed=1, election_every=0, relay_every=0)
        with caplog.at_level(logging.DEBUG, logger="repro.experiments.runner"):
            converge(p, min_cycles=20, max_cycles=200)
        assert [r.levelno for r in caplog.records] == [logging.DEBUG]


def per_event_stream(rates, n_events, rng, live, publisher="subscriber"):
    """The event stream with one scalar publisher draw per event: the
    reference ``event_stream``'s one-call draw must equal."""
    sorted_subs = {}
    for topic in sample_topics(rates, n_events, rng, restrict=list(live)):
        if publisher == "owner":
            yield topic, topic
            continue
        subs = sorted_subs.get(topic)
        if subs is None:
            subs = sorted_subs[topic] = sorted(live[topic])
        yield topic, subs[int(rng.integers(len(subs)))]


class TestEventStream:
    #: Subscriber sets of every size from one up, over wide addresses;
    #: topic 5 and topic 11 have a single subscriber.
    LIVE = {
        t: {(97 * t + 31 * k) % 5003 for k in range(1 + (t * 7) % 40)}
        for t in range(12)
    }
    LIVE[5] = {4242}

    @pytest.mark.parametrize("seed", range(5))
    @pytest.mark.parametrize("n_events", [0, 1, 3000])
    @pytest.mark.parametrize("publisher", ["subscriber", "owner"])
    def test_one_draw_equals_a_scalar_draw_per_event(self, seed, n_events, publisher):
        rates = power_law_rates(12, 1.0, seed=seed)
        got_rng = np.random.default_rng(seed)
        want_rng = np.random.default_rng(seed)
        got = list(event_stream(rates, n_events, got_rng, self.LIVE, publisher))
        want = list(per_event_stream(rates, n_events, want_rng, self.LIVE, publisher))
        assert got == want
        assert len(got) == n_events
        # The generator is left where the scalar draws leave it, so a
        # later draw from it is unchanged too.
        assert got_rng.bit_generator.state == want_rng.bit_generator.state

    def test_one_subscriber_topics_alone(self):
        live = {3: {17}, 8: {2048}}
        rates = power_law_rates(10, 1.0, seed=1)
        got_rng, want_rng = np.random.default_rng(9), np.random.default_rng(9)
        got = list(event_stream(rates, 50, got_rng, live))
        assert got == list(per_event_stream(rates, 50, want_rng, live))
        assert got_rng.bit_generator.state == want_rng.bit_generator.state


class TestMeasure:
    @pytest.fixture(scope="class")
    def vitis(self, subs):
        return build_vitis(subs, CFG, seed=1, min_cycles=30, max_cycles=100)

    def test_collects_requested_events(self, vitis):
        col = measure(vitis, 30, seed=2)
        assert len(col) == 30

    def test_deterministic(self, vitis):
        a = measure(vitis, 20, seed=5).summary()
        b = measure(vitis, 20, seed=5).summary()
        assert a == b

    def test_existing_collector_extended(self, vitis):
        col = MetricsCollector()
        measure(vitis, 10, seed=2, collector=col)
        measure(vitis, 10, seed=3, collector=col)
        assert len(col) == 20

    def test_topic_restriction(self, vitis):
        topic = vitis.topics()[0]
        col = measure(vitis, 10, seed=2, topics=[topic])
        assert all(r.topic == topic for r in col.records)

    def test_owner_mode_skips_dead_owners(self, vitis):
        col = measure(vitis, 10, seed=2, publisher="owner")
        for r in col.records:
            assert r.publisher == r.topic

    def test_invalid_mode(self, vitis):
        with pytest.raises(ValueError):
            measure(vitis, 5, publisher="nobody")

    def test_min_join_age_restricts(self, vitis):
        # Everyone joined at t=0 and the clock advanced past the warmup,
        # so a tiny join-age bound changes nothing...
        a = measure(vitis, 15, seed=2, min_join_age=1.0).summary()
        b = measure(vitis, 15, seed=2).summary()
        assert a["hit_ratio"] == b["hit_ratio"]
        # ...but an impossible bound empties every denominator.
        c = measure(vitis, 15, seed=2, min_join_age=1e9)
        assert all(not r.subscribers for r in c.records)

    def test_rates_drive_topic_choice(self, subs):
        n_topics = 1 + max(t for s in subs for t in s)
        rates = power_law_rates(n_topics, 3.0, seed=1)
        p = build_vitis(subs, CFG, seed=1, rates=rates, min_cycles=20, max_cycles=60)
        col = measure(p, 60, seed=2)
        topics = [r.topic for r in col.records]
        # Strong skew: the modal topic dominates.
        from collections import Counter

        most = Counter(topics).most_common(1)[0][1]
        assert most > 10
