"""Tests for the routing-probe navigability analysis."""

import pytest

from repro.analysis.navigability import RoutingProbe, expected_bound, routing_probe


class TestExpectedBound:
    def test_grows_with_population(self):
        assert expected_bound(10_000) > expected_bound(100)

    def test_shrinks_with_links(self):
        assert expected_bound(1000, n_sw_links=7) < expected_bound(1000, n_sw_links=1)

    def test_degenerate_population(self):
        assert expected_bound(1) > 0


class TestRoutingProbe:
    def test_probe_on_converged_overlay(self, converged_vitis):
        probe = routing_probe(converged_vitis, n_samples=120, seed=1)
        assert probe.successes == probe.samples
        # Lookup consistency: every probe ends at the true rendezvous.
        assert probe.consistency_rate == 1.0
        # Within the theoretical yardstick.
        bound = expected_bound(
            converged_vitis.live_count(), converged_vitis.config.n_sw_links
        )
        assert probe.mean_hops <= bound

    def test_probe_deterministic(self, converged_vitis):
        a = routing_probe(converged_vitis, n_samples=50, seed=3)
        b = routing_probe(converged_vitis, n_samples=50, seed=3)
        assert a == b

    def test_percentile_ordering(self, converged_vitis):
        probe = routing_probe(converged_vitis, n_samples=100, seed=1)
        assert probe.p95_hops >= probe.mean_hops

    def test_empty_population(self):
        class Dead:
            def live_addresses(self):
                return []

        probe = routing_probe(Dead(), n_samples=10)
        assert probe.samples == 0
        assert probe.consistency_rate == 1.0
