"""Property-based tests for the live transport's receive-side dedup.

``UdpTransport._is_duplicate(src, seq)`` is checked against the rule it
implements, written the naive way: a ``seq`` is a duplicate when it is
among the last ``_DEDUP_WINDOW`` distinct seqs *first seen* from that
``src`` — one window per sender, and a seq that fell out of the window
counts as first seen again when it returns."""

import random

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.net.transport import _DEDUP_WINDOW, UdpTransport


class _Reference:
    """Per sender, the index of each seq's latest first sighting."""

    def __init__(self):
        self.first_seen = {}  # src -> {seq: index}
        self.count = {}  # src -> first sightings so far

    def is_duplicate(self, src, seq):
        seen = self.first_seen.setdefault(src, {})
        n = self.count.get(src, 0)
        if seq in seen and seen[seq] >= n - _DEDUP_WINDOW:
            return True
        seen[seq] = n
        self.count[src] = n + 1
        return False


senders = st.integers(0, 2)
#: One step of an arrival stream.  ``fresh``: the sender's next ``k`` seqs
#: (every sender counts from 1, so senders reuse each other's numbers);
#: ``replay``: the seq first seen ``d`` sightings back, at and around the
#: window's edge; ``any``: a small, often repeated seq.
steps = st.one_of(
    st.tuples(st.just("fresh"), senders, st.integers(1, _DEDUP_WINDOW + 50)),
    st.tuples(
        st.just("replay"), senders,
        st.sampled_from([1, 2, _DEDUP_WINDOW - 1, _DEDUP_WINDOW, _DEDUP_WINDOW + 1])
        | st.integers(1, 2 * _DEDUP_WINDOW),
    ),
    st.tuples(st.just("any"), senders, st.integers(0, 40)),
)

EDGE = _DEDUP_WINDOW + 1


@settings(max_examples=150, deadline=None)
@given(st.lists(steps, max_size=12))
# The window's edge: the seq first seen exactly _DEDUP_WINDOW sightings
# back is still a duplicate; one further back is not.
@example([("fresh", 0, EDGE), ("replay", 0, _DEDUP_WINDOW), ("replay", 0, EDGE)])
# Senders number from 1 alike; one sender's seq says nothing of another's.
@example([("fresh", 0, 3), ("fresh", 1, 3)])
def test_dedup_agrees_with_the_window_rule(stream):
    t = UdpTransport(1, random.Random(0))
    ref = _Reference()
    sent = {}  # src -> last fresh seq
    sightings = {}  # src -> seqs in first-sighting order
    for op, src, k in stream:
        if op == "fresh":
            first = sent.get(src, 0) + 1
            sent[src] = first + k - 1
            arrivals = range(first, first + k)
        elif op == "replay":
            history = sightings.get(src, [])
            arrivals = [history[-k]] if k <= len(history) else []
        else:
            arrivals = [k]
        for seq in arrivals:
            expected = ref.is_duplicate(src, seq)
            assert t._is_duplicate(src, seq) == expected, (src, seq)
            if not expected:
                sightings.setdefault(src, []).append(seq)
