"""Tests for the bounded routing table."""

import pytest

from repro.core.routing_table import LinkKind, RoutingTable


def d(addr, kind, age=0):
    """One selected neighbor as Alg. 4 emits it: (address, node_id, age, kind)."""
    return (addr, addr * 31, age, kind)


class TestReplace:
    def test_basic_install(self):
        rt = RoutingTable(owner=0, max_size=5)
        rt.replace([d(1, LinkKind.SUCCESSOR), d(2, LinkKind.FRIEND)])
        assert len(rt) == 2
        assert rt.by_address().get(1).kind is LinkKind.SUCCESSOR
        assert rt.by_address().get(1).node_id == 31
        assert 2 in rt

    def test_retained_neighbor_keeps_age(self):
        rt = RoutingTable(owner=0, max_size=5)
        rt.replace([d(1, LinkKind.FRIEND)])
        rt.by_address().get(1).age = 3
        rt.replace([d(1, LinkKind.SW), d(2, LinkKind.FRIEND)])
        assert rt.by_address().get(1).age == 3  # staleness survives reselection
        assert rt.by_address().get(2).age == 0

    def test_same_role_reuses_the_entry(self):
        rt = RoutingTable(owner=0, max_size=5)
        rt.replace([d(1, LinkKind.FRIEND), d(2, LinkKind.SW)])
        kept = rt.by_address().get(1)
        kept.age = 2
        rt.replace([d(2, LinkKind.FRIEND), d(1, LinkKind.FRIEND, age=7)])
        assert rt.by_address().get(1) is kept
        assert (kept.address, kept.node_id, kept.kind, kept.age) == (1, 31, LinkKind.FRIEND, 2)
        assert rt.by_address().get(2).kind is LinkKind.FRIEND   # role changed: new entry, age kept
        assert rt.addresses == [2, 1]               # table order is selection order

    def test_invalid_size(self):
        with pytest.raises(ValueError):
            RoutingTable(owner=0, max_size=0)


class TestAccessors:
    def setup_method(self):
        self.rt = RoutingTable(owner=0, max_size=6)
        self.rt.replace(
            [
                d(1, LinkKind.SUCCESSOR),
                d(2, LinkKind.PREDECESSOR),
                d(3, LinkKind.SW),
                d(4, LinkKind.FRIEND),
                d(5, LinkKind.FRIEND),
            ]
        )

    def test_by_kind(self):
        assert [e.address for e in self.rt if e.kind is LinkKind.FRIEND] == [4, 5]

    def test_successor_predecessor(self):
        assert self.rt.successor().address == 1
        assert [e.address for e in self.rt if e.kind is LinkKind.PREDECESSOR] == [2]

    def test_links_shape(self):
        links = dict(self.rt.links())
        assert links[3] == 3 * 31

    def test_addresses_and_entries(self):
        assert sorted(self.rt.addresses) == [1, 2, 3, 4, 5]
        assert len(self.rt) == len(list(self.rt)) == 5

    def test_missing_ring_links(self):
        rt = RoutingTable(owner=0, max_size=3)
        assert rt.successor() is None


class TestHeartbeats:
    def test_heartbeat_resets_age(self):
        rt = RoutingTable(owner=0, max_size=3)
        rt.replace([d(1, LinkKind.FRIEND)])
        rt.by_address().get(1).age = 4
        rt.heartbeat(1)
        assert rt.by_address().get(1).age == 0

    def test_heartbeat_unknown_is_noop(self):
        RoutingTable(owner=0, max_size=3).heartbeat(9)

    def test_age_and_evict(self):
        rt = RoutingTable(owner=0, max_size=4)
        rt.replace([d(1, LinkKind.FRIEND), d(2, LinkKind.FRIEND)])
        alive = {1}
        evicted = []
        for _ in range(4):
            evicted += rt.age_and_evict(lambda a: a in alive, threshold=2)
        assert evicted == [2]
        assert rt.by_address().get(1).age == 0
        assert 2 not in rt

    def test_remove(self):
        rt = RoutingTable(owner=0, max_size=3)
        rt.replace([d(1, LinkKind.FRIEND)])
        assert rt.remove(1) is True
        assert rt.remove(1) is False
