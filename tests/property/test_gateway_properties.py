"""Property-based tests for the Alg. 5 gateway election.

Hypothesis generates arbitrary cluster graphs (random node ids, random
edges, random topic hash, random depth); the election, run to its fixed
point, must satisfy the paper's structural guarantees on *every* input:

1. every connected component (cluster) contains at least one gateway;
2. every node's proposal names a gateway in its own component;
3. every node is within ``d`` hops of its proposed gateway (the proposal
   hop counter respects the bound);
4. the election is stable: one more round changes nothing.
"""

from collections import deque

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.gateway import GatewayState, elect_round
from repro.core.identifiers import IdSpace
from repro.core.routing_table import LinkKind, RoutingTable

SPACE = IdSpace(bits=16)
TOPIC = 0


@st.composite
def cluster_graphs(draw):
    n = draw(st.integers(min_value=1, max_value=14))
    ids = draw(
        st.lists(
            st.integers(min_value=0, max_value=SPACE.size - 1),
            min_size=n, max_size=n, unique=True,
        )
    )
    possible = [(i, j) for i in range(n) for j in range(i + 1, n)]
    edges = draw(st.lists(st.sampled_from(possible), max_size=3 * n, unique=True)) if possible else []
    topic_hash = draw(st.integers(min_value=0, max_value=SPACE.size - 1))
    depth = draw(st.integers(min_value=1, max_value=6))
    return dict(enumerate(ids)), edges, topic_hash, depth


class Election:
    def __init__(self, ids, edges, topic_hash, depth):
        self.ids = ids
        self.topic_hash = topic_hash
        self.depth = depth
        self.states = {a: GatewayState(a, node_id) for a, node_id in ids.items()}
        self.adj = {a: set() for a in ids}
        for u, v in edges:
            self.adj[u].add(v)
            self.adj[v].add(u)
        self.rts = {}
        for a, neigh in self.adj.items():
            rt = RoutingTable(a, max(1, len(neigh)))
            rt.replace([(b, ids[b], 0, LinkKind.FRIEND) for b in sorted(neigh)])
            self.rts[a] = rt

    def round(self):
        results = {
            a: elect_round(
                SPACE,
                self.states[a],
                frozenset({TOPIC}),
                self.rts[a],
                neighbor_subscriptions=lambda _: frozenset({TOPIC}),
                neighbor_proposals={nb: s.proposals for nb, s in self.states.items()},
                topic_ids=lambda t: self.topic_hash,
                depth=self.depth,
            )
            for a in self.ids
        }
        changed = any(self.states[a].proposals != props for a, props in results.items())
        for a, props in results.items():
            self.states[a].proposals = props
        return changed

    def run_to_fixed_point(self, cap=40):
        for _ in range(cap):
            if not self.round():
                return True
        return False

    def components(self):
        remaining = set(self.ids)
        comps = []
        while remaining:
            start = remaining.pop()
            comp = {start}
            q = deque([start])
            while q:
                u = q.popleft()
                for v in self.adj[u]:
                    if v in remaining:
                        remaining.remove(v)
                        comp.add(v)
                        q.append(v)
            comps.append(comp)
        return comps

    def hops_to(self, src, dst):
        dist = {src: 0}
        q = deque([src])
        while q:
            u = q.popleft()
            if u == dst:
                return dist[u]
            for v in self.adj[u]:
                if v not in dist:
                    dist[v] = dist[u] + 1
                    q.append(v)
        return None


class TestElectionInvariants:
    @given(cluster_graphs())
    @settings(max_examples=80, deadline=None)
    def test_every_component_has_a_gateway(self, graph):
        e = Election(*graph)
        e.run_to_fixed_point()
        gateways = {
            a for a in e.ids if e.states[a].proposals.get(TOPIC).gw_addr == a
        }
        for comp in e.components():
            assert gateways & comp, f"component {comp} has no gateway"

    @given(cluster_graphs())
    @settings(max_examples=80, deadline=None)
    def test_proposed_gateway_is_in_own_component(self, graph):
        e = Election(*graph)
        e.run_to_fixed_point()
        for comp in e.components():
            for a in comp:
                assert e.states[a].proposals.get(TOPIC).gw_addr in comp

    @given(cluster_graphs())
    @settings(max_examples=80, deadline=None)
    def test_depth_bound_respected(self, graph):
        e = Election(*graph)
        e.run_to_fixed_point()
        for a in e.ids:
            prop = e.states[a].proposals.get(TOPIC)
            assert prop.hops < e.depth
            real = e.hops_to(a, prop.gw_addr)
            assert real is not None and real <= prop.hops

    @given(cluster_graphs())
    @settings(max_examples=60, deadline=None)
    def test_election_reaches_a_fixed_point(self, graph):
        e = Election(*graph)
        assert e.run_to_fixed_point(cap=60), "election oscillated"

    @given(cluster_graphs())
    @settings(max_examples=60, deadline=None)
    def test_gateway_never_worse_than_self(self, graph):
        """Adopting a proposal must never name a gateway farther (in id
        space) from hash(t) than the node itself."""
        e = Election(*graph)
        e.run_to_fixed_point()
        for a, node_id in e.ids.items():
            prop = e.states[a].proposals.get(TOPIC)
            own = SPACE.distance(node_id, e.topic_hash)
            got = SPACE.distance(prop.gw_id, e.topic_hash)
            assert got <= own
