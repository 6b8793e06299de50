"""The cycle-driven T-Man exchange equals two message-driven merges.

``VitisNode.tman_step`` folds both sides' samples, tables and zero-age
own triples into one pool (freshest wins) and builds one ring index
that both sides select from, each without its own entry.  The
message-driven handlers run the same exchange as two
``_merge_and_select`` calls, one per side, each folding the other
side's buffer into a copy of its own pool.  The two must agree whenever
an address carries one id, which is how every node is built.

Hypothesis plants two nodes in ``IdSpace(8)`` and ``IdSpace(64)`` whose
routing tables and sampling views overlap at equal and unequal ages,
contain each other and hold equal ids; some profiles are unknown.  The
pair is deep-copied; one copy runs ``tman_step``, the other the peer
pick, both pools and the two merges in the order the handlers run them.
Routing tables, the selections installed (with the ages the winning
triples carried), node RNG states and utility memos must be equal after
an exchange each way.

Mutation-checked: a stalest-wins fold, the owner's triple not forced
to age 0, the own entry left in the index, one index consumed by both
sides and the equal-id re-sort dropped each fail this file.
"""

import copy
import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.config import VitisConfig
from repro.core.identifiers import IdSpace
from repro.core.node import VitisNode
from repro.core.profile import NodeProfile
from repro.core.routing_table import LinkKind
from repro.core.utility import UtilityFunction
from repro.gossip.view import Descriptor


class RecordingNode(VitisNode):
    """A node that keeps the last selection it installed: the winners'
    wire ages, which a retained entry does not take over."""

    __slots__ = ("installed",)

    def _select_neighbors(self, ring, ids, profile_of):
        self.installed = super()._select_neighbors(ring, ids, profile_of)
        return self.installed

N_TOPICS = 5
ADDRESSES = range(14)
A, B = 0, 1

ages = st.integers(min_value=0, max_value=3)
others = st.sets(st.sampled_from(ADDRESSES), max_size=10)
subs = st.frozensets(st.integers(min_value=0, max_value=N_TOPICS - 1), min_size=1)


@st.composite
def pairs(draw):
    bits = draw(st.sampled_from([8, 64]))
    size = 1 << bits
    # A few shared values make equal ids (and my own id on others) common.
    shared = draw(st.lists(st.integers(min_value=0, max_value=size - 1), min_size=1, max_size=3))
    ids = {
        a: draw(st.one_of(st.sampled_from(shared), st.integers(min_value=0, max_value=size - 1)))
        for a in ADDRESSES
    }
    n_sw = draw(st.integers(min_value=0, max_value=2))
    # The sample and view sizes are class constants: a drawn subclass
    # substitutes them.
    drawn = type("DrawnConfig", (VitisConfig,), {
        "SAMPLE_SIZE": draw(st.integers(min_value=1, max_value=6)),
        "PEER_VIEW_SIZE": 8,
    })
    config = drawn(
        rt_size=draw(st.integers(min_value=max(3, n_sw + 2), max_value=8)),
        n_sw_links=n_sw,
    )
    planted = {}
    for me, other in ((A, B), (B, A)):
        # Each table holds the other node; each view may.
        rt = {other: draw(ages)} | {a: draw(ages) for a in draw(others) - {me}}
        view = {a: draw(ages) for a in draw(others) - {me}}
        planted[me] = (rt, view, draw(st.integers(min_value=0, max_value=2**32)))
    profiles = {a: draw(st.none() | subs) for a in ADDRESSES}
    return IdSpace(bits), ids, config, planted, profiles


def build(case):
    space, ids, config, planted, subs_of = case
    utility = UtilityFunction()
    profiles = {a: NodeProfile(a, ids[a], s) for a, s in subs_of.items() if s is not None}
    nodes = {}
    for me, (rt, view, seed) in planted.items():
        node = RecordingNode(me, ids[me], subs_of[me] or (), config, space, utility,
                             random.Random(seed))
        node.n_estimate = 20
        node.start()
        node.rt.replace([
            (a, ids[a], age, kind)
            for (a, age), kind in zip(rt.items(), [LinkKind.SUCCESSOR, LinkKind.PREDECESSOR]
                                      + [LinkKind.FRIEND] * len(rt))
        ])
        for a, age in view.items():
            node.ps.view.insert(Descriptor(a, ids[a], age))
        profiles[me] = node.profile
        nodes[me] = node
    return nodes, profiles


def state(node):
    table = [(e.address, e.node_id, e.kind, e.age) for e in node.rt]
    return table, getattr(node, "installed", None), node.rng.getstate(), node._umemo


@settings(max_examples=300, deadline=None)
@given(pairs())
def test_tman_step_equals_two_merge_and_selects(case):
    nodes, profiles = build(case)
    is_alive = {A, B}.__contains__
    exchanged = 0
    for me, other in ((A, B), (B, A)):
        by_msg, by_msg_profiles = copy.deepcopy((nodes, profiles))
        peer = nodes[me].tman_step(nodes.get, is_alive, profiles.get)

        a, b = by_msg[me], by_msg[other]
        # Both tables were planted holding the other node; after the
        # first exchange one may have dropped it, and the fallback
        # sample may not offer it.
        assert a._pick_exchange_peer(is_alive) == peer
        if peer is not None:
            assert peer == other
            exchanged += 1
            mine, theirs = a._exchange_pool(), b._exchange_pool()
            a._merge_and_select(mine, theirs.values(), by_msg_profiles.get)
            b._merge_and_select(theirs, mine.values(), by_msg_profiles.get)

        for addr in (A, B):
            assert state(nodes[addr]) == state(by_msg[addr])
    assert exchanged
