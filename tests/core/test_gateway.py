"""Tests for the Alg. 5 gateway election.

The tests drive `elect_round` directly over hand-built topologies with a
tiny id space, emulating the protocol's two-phase commit (all nodes read
the previous round's proposals).
"""

from repro.core.gateway import GatewayState, Proposal, elect_round
from repro.core.identifiers import IdSpace
from repro.core.routing_table import LinkKind, RoutingTable

SPACE = IdSpace(bits=8)
TOPIC = 1


class Cluster:
    """A hand-built cluster: nodes with fixed ids, undirected edges, all
    subscribed to TOPIC."""

    def __init__(self, ids, edges, topic_hash, depth=5, subscribed=None):
        self.ids = ids
        self.topic_hash = topic_hash
        self.depth = depth
        self.subscribed = subscribed if subscribed is not None else set(ids)
        self.states = {a: GatewayState(a, node_id) for a, node_id in ids.items()}
        self.rts = {a: RoutingTable(a, 16) for a in ids}
        adj = {a: set() for a in ids}
        for u, v in edges:
            adj[u].add(v)
            adj[v].add(u)
        for a, neigh in adj.items():
            self.rts[a].replace(
                [(b, ids[b], 0, LinkKind.FRIEND) for b in sorted(neigh)]
            )

    def subs_of(self, addr):
        return frozenset({TOPIC}) if addr in self.subscribed else frozenset()

    def run_round(self):
        results = {}
        for a in self.ids:
            if a not in self.subscribed:
                continue
            results[a] = elect_round(
                SPACE,
                self.states[a],
                frozenset({TOPIC}),
                self.rts[a],
                neighbor_subscriptions=self.subs_of,
                neighbor_proposals={n: s.proposals for n, s in self.states.items()},
                topic_ids=lambda t: self.topic_hash,
                depth=self.depth,
            )
        for a, props in results.items():
            self.states[a].proposals = props

    def run(self, rounds):
        for _ in range(rounds):
            self.run_round()

    def gateways(self):
        return sorted(
            a
            for a in self.subscribed
            if self.states[a].proposals.get(TOPIC) and self.states[a].proposals.get(TOPIC).gw_addr == a
        )


class TestSingleCluster:
    def test_converges_to_closest_id(self):
        # Path 0-1-2-3; node 3's id (98) is closest to hash 100.
        c = Cluster(
            ids={0: 10, 1: 40, 2: 70, 3: 98},
            edges=[(0, 1), (1, 2), (2, 3)],
            topic_hash=100,
        )
        c.run(5)
        assert c.gateways() == [3]
        # Everyone's proposal names node 3 with correct hop counts.
        assert c.states[0].proposals.get(TOPIC).gw_addr == 3
        assert c.states[0].proposals.get(TOPIC).hops == 3
        assert c.states[2].proposals.get(TOPIC).hops == 1

    def test_isolated_node_is_its_own_gateway(self):
        c = Cluster(ids={0: 10}, edges=[], topic_hash=100)
        c.run(2)
        assert c.gateways() == [0]

    def test_depth_bound_spawns_multiple_gateways(self):
        # A long path with the best id at one end and d=2: far nodes must
        # elect their own gateways (paper: #gateways ∝ diameter / d).
        ids = {i: 200 - 10 * i for i in range(8)}  # node 0 closest to 200
        edges = [(i, i + 1) for i in range(7)]
        c = Cluster(ids=ids, edges=edges, topic_hash=200, depth=2)
        c.run(10)
        gws = c.gateways()
        assert 0 in gws
        assert len(gws) >= 2
        # Every node is within depth of its proposed gateway.
        for a in ids:
            assert c.states[a].proposals.get(TOPIC).hops < 2

    def test_two_phase_round_reads_previous_state(self):
        # Proposals spread exactly one hop per round: round 1 initialises
        # everyone to self; in round 2, node 0 can only have adopted node
        # 1's round-1 self-proposal, never node 3's id from two hops away.
        c = Cluster(
            ids={0: 10, 1: 40, 2: 70, 3: 98},
            edges=[(0, 1), (1, 2), (2, 3)],
            topic_hash=100,
        )
        c.run(1)
        assert c.states[0].proposals.get(TOPIC).gw_addr == 0  # only self known
        c.run(1)
        assert c.states[0].proposals.get(TOPIC).gw_addr == 1  # one hop of spread

    def test_gateway_topics_accessor(self):
        c = Cluster(ids={0: 10, 1: 99}, edges=[(0, 1)], topic_hash=100)
        c.run(3)
        assert c.states[1].gateway_topics() == [TOPIC]
        assert c.states[0].gateway_topics() == []


class TestPartitionedClusters:
    def test_each_component_elects_a_gateway(self):
        # Two components: {0,1} and {2,3}.
        c = Cluster(
            ids={0: 10, 1: 40, 2: 70, 3: 98},
            edges=[(0, 1), (2, 3)],
            topic_hash=100,
        )
        c.run(5)
        assert c.gateways() == [1, 3]

    def test_uninterested_neighbors_do_not_relay_proposals(self):
        # 0 - X - 2 where X is not subscribed: 0 and 2 stay separate.
        c = Cluster(
            ids={0: 10, 5: 50, 2: 98},
            edges=[(0, 5), (5, 2)],
            topic_hash=100,
            subscribed={0, 2},
        )
        c.run(5)
        assert c.gateways() == [0, 2]


class TestFailureRecovery:
    def test_new_gateway_after_eviction(self):
        c = Cluster(
            ids={0: 10, 1: 40, 2: 70, 3: 98},
            edges=[(0, 1), (1, 2), (2, 3)],
            topic_hash=100,
        )
        c.run(5)
        assert c.gateways() == [3]
        # Node 3 dies: neighbors evict it from their routing tables and
        # drop it from the subscribed set.
        c.subscribed.discard(3)
        for a in (0, 1, 2):
            c.rts[a].remove(3)
        c.run(5)
        assert c.gateways() == [2]


class TestProposal:
    def test_state_clear(self):
        s = GatewayState(1, 40)
        s.proposals[TOPIC] = Proposal(1, 40, 1, 0)
        s.clear()
        assert s.proposals.get(TOPIC) is None


class TestProposalMapsAreValues:
    """``GatewayState.proposals`` is replaced, never edited: whoever holds
    a committed map (a neighbor that was sent it in a profile message)
    keeps what it was given."""

    @staticmethod
    def committed():
        s = GatewayState(1, 40)
        s.commit({TOPIC: Proposal(2, 70, 2, 1), 2: Proposal(1, 40, 1, 0)})
        return s, s.proposals, dict(s.proposals)

    def test_drop_dead_installs_a_new_map(self):
        s, held, snapshot = self.committed()
        assert s.drop_dead(lambda a: a != 2) == [TOPIC]
        assert held == snapshot
        assert s.proposals == {2: Proposal(1, 40, 1, 0)}

    def test_drop_dead_with_nothing_stale_changes_nothing(self):
        s, held, snapshot = self.committed()
        assert s.drop_dead(lambda a: True) == []
        assert s.proposals is held and held == snapshot

    def test_clear_installs_a_new_map(self):
        s, held, snapshot = self.committed()
        s.clear()
        assert held == snapshot
        assert s.proposals == {}

    def test_commit_installs_the_new_map_and_leaves_the_old(self):
        s, held, snapshot = self.committed()
        s.commit({TOPIC: Proposal(1, 40, 1, 0)})
        assert held == snapshot
        assert s.proposals == {TOPIC: Proposal(1, 40, 1, 0)}
        # An equal map committed is an equal map.
        same = s.proposals
        s.commit(dict(same))
        assert s.proposals == same
