"""Tests for the deterministic seed-tree RNG."""

import numpy as np

from repro.sim.rng import SeedTree


class TestDeterminism:
    def test_same_seed_same_stream(self):
        a = SeedTree(7).pyrandom("node", 3)
        b = SeedTree(7).pyrandom("node", 3)
        assert [a.getrandbits(64) for _ in range(10)] == [b.getrandbits(64) for _ in range(10)]

    def test_pyrandom_same_seed_same_stream(self):
        a = SeedTree(7).pyrandom("x")
        b = SeedTree(7).pyrandom("x")
        assert [a.random() for _ in range(10)] == [b.random() for _ in range(10)]

    def test_different_names_differ(self):
        t = SeedTree(7)
        a = t.pyrandom("x").getrandbits(60)
        b = t.pyrandom("y").getrandbits(60)
        assert a != b

    def test_different_seeds_differ(self):
        a = SeedTree(1).pyrandom("x").getrandbits(60)
        b = SeedTree(2).pyrandom("x").getrandbits(60)
        assert a != b

    def test_multi_part_names(self):
        t = SeedTree(3)
        a = t.pyrandom("node", 1).random()
        b = t.pyrandom("node", 2).random()
        assert a != b

    def test_repeated_request_restarts_stream(self):
        t = SeedTree(5)
        r1 = t.pyrandom("s")
        first = r1.getrandbits(30)
        r2 = t.pyrandom("s")
        assert r2.getrandbits(30) == first


class TestChildTrees:
    def test_child_namespaces_are_independent(self):
        t = SeedTree(11)
        a = t.child("vitis").pyrandom("node", 3).random()
        b = t.child("rvr").pyrandom("node", 3).random()
        assert a != b

    def test_child_deterministic(self):
        a = SeedTree(11).child("vitis").pyrandom("node", 3).random()
        b = SeedTree(11).child("vitis").pyrandom("node", 3).random()
        assert a == b

    def test_child_seed_property(self):
        t = SeedTree(11)
        assert isinstance(t.child("x").seed, int)

    def test_root_seed_property(self):
        assert SeedTree(99).seed == 99


class TestNameHashing:
    def test_string_and_int_names_coexist(self):
        t = SeedTree(0)
        vals = {
            t.pyrandom("a").random(),
            t.pyrandom(1).random(),
            t.pyrandom("a", 1).random(),
            t.pyrandom(1, "a").random(),
        }
        assert len(vals) == 4

    def test_numpy_int_names_match_python_ints(self):
        t = SeedTree(0)
        a = t.pyrandom("n", 5).random()
        b = SeedTree(0).pyrandom("n", np.int64(5)).random()
        assert a == b
