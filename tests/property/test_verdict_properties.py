"""Property-based tests for the SWIM per-subject state machine.

Random sequences of ``mark_alive`` / ``suspect`` / ``refute`` /
``confirm`` with a clock that never runs backwards, checked against the
contract in ``Verdict``'s docstrings.
"""

from hypothesis import given
from hypothesis import strategies as st

from repro.faults.detector import STATE_ALIVE, STATE_DEAD, STATE_SUSPECT, Verdict

# Whole-number times make a confirm land exactly on, or one before, a
# deadline often enough to test the boundary.
times = st.integers(min_value=0, max_value=3).map(float)
steps = st.lists(
    st.tuples(
        times,  # how far the clock moves before the call
        st.one_of(
            st.tuples(st.just("mark_alive")),
            st.tuples(st.just("suspect"), st.integers(0, 4), times),  # observer, grace
            st.tuples(st.just("refute"), st.integers(0, 6)),  # incarnation
            st.tuples(st.just("confirm")),
        ),
    ),
    max_size=60,
)


def _replay(seq):
    """Yield ``(now, call, before, returned, after)`` per step, where
    before/after are ``(state, incarnation, deadline, suspectors)``."""
    v = Verdict()
    now = 0.0
    for dt, (name, *args) in seq:
        now += dt
        before = (v.state, v.incarnation, v.deadline, frozenset(v.suspectors))
        if name == "suspect":
            by, grace = args
            returned = v.suspect(by, now + grace)
        elif name == "refute":
            returned = v.refute(args[0])
        elif name == "confirm":
            returned = v.confirm(now)
        else:
            returned = v.mark_alive()
        after = (v.state, v.incarnation, v.deadline, frozenset(v.suspectors))
        yield now, (name, *args), before, returned, after


@given(steps)
def test_incarnation_never_decreases(seq):
    for _, _, before, _, after in _replay(seq):
        assert after[1] >= before[1]


@given(steps)
def test_dead_only_by_confirm_at_or_after_the_deadline(seq):
    deadline = None  # set on the alive -> suspect edge
    for now, call, before, _, after in _replay(seq):
        if before[0] == STATE_ALIVE and after[0] == STATE_SUSPECT:
            assert call[0] == "suspect"
            deadline = now + call[2]
            assert after[2] == deadline
        if after[0] == STATE_SUSPECT:
            assert after[2] == deadline  # a second suspector moves nothing
        if before[0] != STATE_DEAD and after[0] == STATE_DEAD:
            assert call[0] == "confirm"
            assert before[0] == STATE_SUSPECT
            assert now >= deadline
        if call[0] == "confirm" and before[0] == STATE_SUSPECT:
            assert (after[0] == STATE_DEAD) == (now >= deadline)
        if before[0] == STATE_DEAD:
            assert after[0] == STATE_DEAD  # terminal


@given(steps)
def test_only_a_strictly_newer_incarnation_refutes(seq):
    for _, call, before, returned, after in _replay(seq):
        if call[0] != "refute":
            assert after[1] == before[1]
            continue
        newer = call[1] > before[1]
        assert returned == (before[0] == STATE_SUSPECT and newer)
        assert after[1] == (call[1] if returned else before[1])


@given(steps)
def test_suspectors_empty_outside_suspect(seq):
    for _, call, before, _, after in _replay(seq):
        if after[0] != STATE_SUSPECT:
            assert not after[3]
        elif call[0] == "suspect":
            assert call[1] in after[3]


@given(steps)
def test_return_value_is_state_change(seq):
    for _, _, before, returned, after in _replay(seq):
        assert returned == (after[0] != before[0])
