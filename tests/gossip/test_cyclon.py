"""Tests for the Cyclon shuffle variant."""

import random

from repro.gossip.cyclon import CyclonService
from repro.gossip.view import Descriptor
from repro.sim.rng import SeedTree


def build_population(n, view_size=8, seed=1):
    tree = SeedTree(seed)
    services = {
        a: CyclonService(a, a * 7919, view_size, tree.pyrandom("cy", a))
        for a in range(n)
    }
    boot = tree.pyrandom("boot")
    for a, s in services.items():
        seeds = [services[(a + 1) % n].descriptor()]
        other = boot.randrange(n)
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


class TestShuffle:
    def test_default_shuffle_len(self):
        s = CyclonService(1, 11, 8, random.Random(0))
        assert s.shuffle_len == 4

    def test_views_never_exceed_bound(self):
        services = build_population(30, view_size=6)
        run_rounds(services, 15)
        assert all(len(s.view) <= 6 for s in services.values())

    def test_views_never_contain_self(self):
        services = build_population(30)
        run_rounds(services, 15)
        assert all(s.address not in s.view for s in services.values())

    def test_knowledge_spreads(self):
        services = build_population(30)
        run_rounds(services, 20)
        known = set()
        for s in services.values():
            known.update(d.address for d in s.view)
        assert len(known) >= 25

    def test_empty_view_step_is_safe(self):
        s = CyclonService(1, 11, 5, random.Random(0))
        assert s.step({1: s}, lambda a: True) is None


class TestSelfHealing:
    def test_initiator_drops_dead_target(self):
        s = CyclonService(1, 11, 5, random.Random(0))
        s.initialize([Descriptor(2, 22, age=5)])
        assert s.step({1: s}, lambda a: a == 1) is None
        assert 2 not in s.view

    def test_dead_nodes_evaporate(self):
        services = build_population(20)
        run_rounds(services, 10)
        dead = 7
        run_rounds(services, 25, alive=lambda a: a != dead)
        referencing = [a for a, s in services.items() if a != dead and dead in s.view]
        assert len(referencing) <= 1  # near-total evaporation


class TestInDegreeBalance:
    def test_cyclon_balances_in_degree(self):
        """Cyclon's hallmark: in-degree concentrates less than the view
        union would under a star bootstrap."""
        services = build_population(40)
        run_rounds(services, 25)
        indeg = {a: 0 for a in services}
        for s in services.values():
            for addr in (d.address for d in s.view):
                indeg[addr] += 1
        assert max(indeg.values()) <= 20


class TestSamplerSurface:
    def test_sample_fields_draws_like_sample(self):
        """The T-Man exchange buffer reads samplers through
        ``sample_fields`` only; it must be ``sample`` in tuple form."""
        a, b = (build_population(30)[0] for _ in range(2))
        for svc in (a, b):
            svc.view.merge([Descriptor(k, k * 7919, k % 4) for k in range(1, 20)])
        for n in (3, 50):
            assert a.sample_fields(n) == [
                (d.address, d.node_id, d.age) for d in b.sample(n)
            ]
