"""Alg. 4 against a naive transcription (ISSUE 16).

``VitisNode._select_from_pool`` reads the successor, the predecessor and
the small-world picks off one sorted ring index by bisection and the
friend ranking off a utility memo.  Here Alg. 4 is re-stated the slow,
sequential way — scan for the successor, remove it, scan for the
predecessor, remove it, one scan per Symphony draw, then rank what is
left — and Hypothesis checks that both give the same selection
(addresses, ids, ages, kinds, order) and leave the node's RNG in the same
state, over pools where equal ids, candidates sharing the node's own id,
wrap-around, singleton and empty pools all occur.

Mutation-checked: leaving equal-id runs in pool order, entering the run
below a Symphony target anywhere but its lowest address, dropping any of
the three wraps, resolving an equidistant Symphony pick by side instead
of by address, and picking the predecessor before the successor each
fail this file.
"""

import math
import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.config import VitisConfig
from repro.core.identifiers import IdSpace
from repro.core.node import VitisNode
from repro.core.profile import NodeProfile
from repro.core.routing_table import LinkKind
from repro.core.utility import UtilityFunction

N_TOPICS = 6
N_ESTIMATE = 50


def harmonic_fraction(rng, n_estimate):
    """Symphony's draw: a ring fraction with density 1/(x ln n) on [1/n, 1]
    (inverse CDF of ``u ~ U[0, 1)``)."""
    return math.pow(n_estimate, rng.random() - 1.0)


def naive_select(node, pool, profile_of, rng):
    """Alg. 4, one full scan per slot.  ``rng`` stands in for the node's."""
    pool = dict(pool)
    size, me = node.space.size, node.node_id
    out = []

    def pick(candidates, key, kind):
        if candidates:
            t = min(candidates, key=key)
            del pool[t[0]]
            out.append((t, kind))

    def ring(t):  # candidates that share my id never fill a ring slot
        return t[1] != me

    pick([t for t in pool.values() if ring(t)],
         lambda t: ((t[1] - me) % size, t[0]), LinkKind.SUCCESSOR)
    pick([t for t in pool.values() if ring(t)],
         lambda t: ((me - t[1]) % size, t[0]), LinkKind.PREDECESSOR)
    for _ in range(node.config.n_sw_links):
        if not pool:
            break
        delta = int(harmonic_fraction(rng, int(node.n_estimate)) * size)
        target = (me + max(delta, 1)) % size
        pick(list(pool.values()),
             lambda t: (min((t[1] - target) % size, (target - t[1]) % size), t[0]),
             LinkKind.SW)

    def utility(t):
        other = profile_of(t[0])
        return 0.0 if other is None else node.utility(node.profile, other)

    friends = sorted(pool.values(), key=lambda t: (-utility(t), t[2], t[0], t[1]))
    n_friends = max(0, node.config.rt_size - len(out))
    return out + [(t, LinkKind.FRIEND) for t in friends[:n_friends]]


@st.composite
def cases(draw):
    bits = draw(st.sampled_from([8, 64]))
    size = 1 << bits
    n_sw = draw(st.sampled_from([0, 1, 3]))
    rt_size = draw(st.integers(min_value=max(3, n_sw + 2), max_value=15))
    my_id = draw(st.integers(min_value=0, max_value=size - 1))
    seed = draw(st.integers(min_value=0, max_value=2**32))
    sw_target = my_id + int(math.pow(N_ESTIMATE, random.Random(seed).random() - 1.0) * size)
    # Ids cluster around mine, around 0 and around the first Symphony
    # target so that equal ids, my own id, both sides of the wrap and
    # equidistant picks are common, not 2**-64 accidents.
    near = st.integers(min_value=-3, max_value=3)
    ids = st.one_of(
        st.integers(min_value=0, max_value=size - 1),
        near.map(lambda d: (my_id + d) % size),
        near.map(lambda d: d % size),
        near.map(lambda d: (sw_target + d) % size),
    )
    subs = st.frozensets(st.integers(min_value=0, max_value=N_TOPICS - 1))
    candidates = draw(
        st.dictionaries(
            st.integers(min_value=1, max_value=60),
            st.tuples(ids, st.integers(min_value=0, max_value=4), st.none() | subs),
            max_size=45,
        )
    )
    return bits, n_sw, rt_size, my_id, draw(subs), candidates, seed


@settings(max_examples=300, deadline=None)
@given(cases())
def test_selection_equals_naive_alg4(case):
    bits, n_sw, rt_size, my_id, my_subs, candidates, seed = case
    node = VitisNode(
        0, my_id, my_subs,
        VitisConfig(rt_size=rt_size, n_sw_links=n_sw),
        IdSpace(bits), UtilityFunction(), random.Random(seed),
    )
    node.n_estimate = N_ESTIMATE
    pool = {a: (a, nid, age) for a, (nid, age, _) in candidates.items()}
    profiles = {
        a: NodeProfile(a, nid, s) for a, (nid, _, s) in candidates.items() if s is not None
    }
    twin_rng = random.Random(seed)
    # Twice: the second selection ranks friends from a warm memo.
    for _ in range(2):
        expected = naive_select(node, pool, profiles.get, twin_rng)
        got = node._select_from_pool(dict(pool), profiles.get)
        assert [((a, i, age), k) for a, i, age, k in got] == expected
        assert node.rng.getstate() == twin_rng.getstate()
