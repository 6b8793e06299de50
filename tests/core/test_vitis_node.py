"""Tests for VitisNode: Alg. 4 selection, exchanges, heartbeats."""

import random

from repro.core.config import VitisConfig
from repro.core.identifiers import IdSpace
from repro.core.node import VitisNode
from repro.core.routing_table import LinkKind
from repro.core.utility import UtilityFunction
from repro.gossip.view import Descriptor

SPACE = IdSpace()


def make_node(address=0, subs=(1, 2, 3), rt_size=8, n_sw=1, seed=0):
    cfg = VitisConfig(rt_size=rt_size, n_sw_links=n_sw, n_estimate=50)
    return VitisNode(
        address,
        SPACE.node_id(address),
        set(subs),
        cfg,
        SPACE,
        UtilityFunction(),
        random.Random(seed),
    )


def descriptors(addresses):
    return [Descriptor(a, SPACE.node_id(a)) for a in addresses]


def pool(addresses, age=0):
    """A candidate pool in the T-Man surface's shape:
    ``address → (address, node_id, age)``."""
    return {a: (a, SPACE.node_id(a), age) for a in addresses}


class TestSelectNeighbors:
    def test_ring_links_first(self):
        node = make_node()
        selection = node._select_from_pool(pool(range(1, 20)), lambda a: None)
        kinds = [k for _, k in selection]
        assert kinds[0] is LinkKind.SUCCESSOR
        assert kinds[1] is LinkKind.PREDECESSOR
        assert kinds.count(LinkKind.SW) == 1
        assert kinds.count(LinkKind.FRIEND) == 5  # 8 - 3

    def test_successor_is_truly_closest_clockwise(self):
        node = make_node()
        cands = descriptors(range(1, 30))
        selection = dict(
            (k, d)
            for d, k in node._select_from_pool(pool(range(1, 30)), lambda a: None)
        )
        succ = selection[LinkKind.SUCCESSOR]
        my = node.node_id
        for d in cands:
            if d.address != succ.address:
                assert (succ.node_id - my) % SPACE.size <= (d.node_id - my) % SPACE.size

    def test_no_duplicate_slots(self):
        node = make_node()
        selection = node._select_from_pool(pool(range(1, 5)), lambda a: None)
        addrs = [d.address for d, _ in selection]
        assert len(addrs) == len(set(addrs))

    def test_friends_ranked_by_utility(self):
        node = make_node(subs=(1, 2, 3, 4), rt_size=5, n_sw=0)
        profiles = {
            10: make_node(10, subs=(1, 2, 3, 4)).profile,   # utility 1.0
            11: make_node(11, subs=(1, 2)).profile,          # utility 0.5
            12: make_node(12, subs=(9,)).profile,            # utility 0.0
        }
        selection = node._select_from_pool(pool([10, 11, 12]), profiles.get)
        friends = [d.address for d, k in selection if k is LinkKind.FRIEND]
        # One of the three fills a ring slot; the remaining friends are in
        # utility order.
        assert friends == sorted(friends, key=lambda a: -node.utility(node.profile, profiles[a]))

    def test_fewer_candidates_than_slots(self):
        node = make_node(rt_size=15)
        selection = node._select_from_pool(pool([1, 2]), lambda a: None)
        assert len(selection) == 2

    def test_self_excluded(self):
        # Neither entry point of the selection ever installs the node
        # itself: join drops its own bootstrap descriptor, the exchange
        # merge drops its own triple from a received buffer.
        node = make_node(address=3)
        node.join(descriptors([3, 4, 5]))
        assert sorted(node.rt.addresses) == [4, 5]
        received = [(3, node.node_id, 0), (6, SPACE.node_id(6), 0)]
        node._merge_and_select(node._exchange_pool(), received, lambda a: None)
        assert sorted(node.rt.addresses) == [4, 5, 6]

    def test_winner_keeps_its_age(self):
        node = make_node(rt_size=15)
        selection = node._select_from_pool(pool([1, 2], age=4), lambda a: None)
        assert [d.age for d, _ in selection] == [4, 4]


class TestJoin:
    def test_join_seeds_routing_table(self):
        node = make_node()
        node.join(descriptors([5, 6, 7]))
        assert node.alive
        assert len(node.rt) == 3

    def test_rejoin_resets_state(self):
        node = make_node()
        node.join(descriptors([5, 6, 7]))
        node.gw_state.proposals[1] = "whatever"
        node.relay.set_parent(1, 5)
        node.seen_events.add(9)
        node.stop()
        node.join(descriptors([8]))
        assert node.gw_state.proposals == {}
        assert not node.relay.on_tree(1)
        assert node.seen_events == set()
        assert node.rt.addresses == [8]


class TestExchange:
    def test_exchange_installs_both_sides(self):
        a, b = make_node(0, seed=1), make_node(1, seed=2)
        a.join(descriptors([1]))
        b.join(descriptors([0]))
        nodes = {0: a, 1: b}
        peer = a.tman_step(nodes.get, lambda x: True, lambda x: nodes[x].profile if x in nodes else None)
        assert peer == 1
        assert 1 in a.rt
        assert 0 in b.rt

    def test_dead_peer_dropped(self):
        a, b = make_node(0), make_node(1)
        a.join(descriptors([1]))
        b.join(descriptors([0]))
        b.stop()
        nodes = {0: a, 1: b}
        result = a.tman_step(nodes.get, lambda x: x == 0, lambda x: None)
        assert result is None
        assert 1 not in a.rt

    def test_exchange_buffer_freshness(self):
        a = make_node(0)
        a.join([Descriptor(1, SPACE.node_id(1), age=5), Descriptor(2, SPACE.node_id(2))])
        buf = a._exchange_pool()
        assert {1, 2} <= set(buf)
        assert all(addr == t[0] for addr, t in buf.items())
        # The node's own zero-age descriptor rides last.
        assert list(buf.items())[-1] == (0, (0, a.node_id, 0))
        # Sample vs. table: the fresher age wins.
        a.rt.by_address().get(1).age = 2
        assert a._exchange_pool()[1] == (1, SPACE.node_id(1), 2)
        a.rt.by_address().get(1).age = 9
        assert a._exchange_pool()[1] == (1, SPACE.node_id(1), 5)

    def test_merge_keeps_freshest_and_heartbeat_age(self):
        a = make_node(3, rt_size=15)
        a.join([Descriptor(4, SPACE.node_id(4), age=6)])
        received = [
            (3, SPACE.node_id(3), 0),   # the receiver itself: never a neighbor
            (4, SPACE.node_id(4), 1),   # fresher than what a holds
            (5, SPACE.node_id(5), 7),
            (5, SPACE.node_id(5), 2),   # duplicate on the wire: freshest wins
        ]
        a.rt.by_address().get(4).age = 6
        a._merge_and_select(a._exchange_pool(), received, lambda x: None)
        assert sorted(a.rt.addresses) == [4, 5]
        assert a.rt.by_address().get(4).descriptor.age == 1
        assert a.rt.by_address().get(4).age == 6   # a retained neighbor keeps its heartbeat age
        assert a.rt.by_address().get(5).age == 2


class TestHeartbeats:
    def test_eviction_after_threshold(self):
        node = make_node()
        node.join(descriptors([1, 2]))
        threshold = node.config.staleness_threshold
        evicted = []
        for _ in range(threshold + 1):
            evicted += node.heartbeat_step(lambda a: a == 1)
        assert evicted == [2]
        assert 2 not in node.rt
        assert node.rt.by_address().get(1).age == 0
