"""Tests for the Newscast peer sampling service."""

import random

from repro.gossip.peer_sampling import PeerSamplingService
from repro.gossip.view import Descriptor
from repro.sim.rng import SeedTree


def build_population(n, view_size=8, seed=1):
    tree = SeedTree(seed)
    services = {
        a: PeerSamplingService(a, a * 7919, view_size, tree.pyrandom("ps", a))
        for a in range(n)
    }
    # Bootstrap: everyone knows node 0 plus one random other.
    boot_rng = tree.pyrandom("boot")
    for a, s in services.items():
        seeds = [services[0].descriptor()]
        other = boot_rng.randrange(n)
        if other != a:
            seeds.append(services[other].descriptor())
        s.initialize(seeds)
    return services


def run_rounds(services, rounds, alive=lambda a: True, order_seed=3):
    rng = random.Random(order_seed)
    for _ in range(rounds):
        order = list(services)
        rng.shuffle(order)
        for a in order:
            if alive(a):
                services[a].step(services, alive)


class TestBootstrap:
    def test_initialize_excludes_self(self):
        s = PeerSamplingService(1, 11, 5, random.Random(0))
        s.initialize([Descriptor(1, 11), Descriptor(2, 22)])
        assert 1 not in s.view
        assert 2 in s.view

    def test_descriptor_is_fresh(self):
        s = PeerSamplingService(1, 11, 5, random.Random(0))
        assert s.descriptor().age == 0

    def test_empty_view_step_is_safe(self):
        s = PeerSamplingService(1, 11, 5, random.Random(0))
        assert s.step({1: s}, lambda a: True) is None


class TestConvergence:
    def test_views_fill_up(self):
        services = build_population(30)
        run_rounds(services, 15)
        sizes = [len(s.view) for s in services.values()]
        assert min(sizes) >= 6  # views near capacity

    def test_knowledge_spreads_beyond_bootstrap(self):
        services = build_population(30)
        run_rounds(services, 15)
        # Union of all views should cover a solid majority of the
        # population (small views concentrate somewhat — known Newscast
        # behaviour; nodes stay connected because they keep initiating).
        known = set()
        for s in services.values():
            known.update(s.view.addresses)
        assert len(known) >= 20

    def test_in_degree_not_degenerate(self):
        services = build_population(40)
        run_rounds(services, 20)
        indeg = {a: 0 for a in services}
        for s in services.values():
            for addr in s.view.addresses:
                indeg[addr] += 1
        # Nobody should be referenced by everyone or by no one.
        assert max(indeg.values()) < 40
        assert sum(1 for v in indeg.values() if v == 0) <= 5


class TestFailureHandling:
    def test_dead_peer_removed_on_contact(self):
        services = build_population(10)
        run_rounds(services, 5)
        dead = 3
        run_rounds(services, 15, alive=lambda a: a != dead)
        for a, s in services.items():
            if a != dead:
                assert dead not in s.view, f"node {a} still references dead {dead}"

    def test_failed_exchange_counted(self):
        s = PeerSamplingService(1, 11, 5, random.Random(0))
        s.initialize([Descriptor(2, 22)])
        assert s.step({1: s}, lambda a: a == 1) is None
        assert 2 not in s.view


class TestSampling:
    def test_sample_size(self):
        services = build_population(30)
        run_rounds(services, 10)
        s = services[5]
        assert len(s.sample(4)) == 4

    def test_sample_is_subset_of_view(self):
        services = build_population(30)
        run_rounds(services, 10)
        s = services[5]
        assert set(d.address for d in s.sample(5)) <= set(s.view.addresses)
