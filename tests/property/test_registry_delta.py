"""``MetricsRegistry.delta_since`` against the one-shot snapshot.

The live cluster ships a node's metrics as a stream of deltas and the
collector folds them back with ``merge``; the contract in the docstring
is that merging every delta of a session, in order, into an empty
registry yields one final ``snapshot()``.  Hypothesis interleaves
counter increments, gauge sets and increments, histogram observations,
bare instrument lookups and cursor reads over a few names and label
sets.  Values are integers, so every fold is float-exact and the
comparison is equality.

A delta must also be minimal: it lists exactly the instruments whose
snapshot entry is new or different since the cursor was taken, and is
``None`` when there are none.  Without that half, a cursor that forgot
gauges would pass — it re-sends every gauge's absolute value, which
folds to the same registry.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.obs.registry import MetricsRegistry

BUCKETS = (1, 2, 4, 8)

names = st.sampled_from(["a", "b"])
labels = st.sampled_from([{}, {"k": "x"}, {"k": "y"}])

ops = st.lists(
    st.one_of(
        st.tuples(st.just("inc"), names, labels, st.integers(0, 5)),
        st.tuples(st.just("set"), names, labels, st.integers(-20, 20)),
        st.tuples(st.just("gauge_inc"), names, labels, st.integers(-5, 5)),
        st.tuples(st.just("observe"), names, labels, st.integers(0, 12)),
        st.tuples(st.just("lookup"), names, labels, st.sampled_from("cgh")),
        st.just(("cursor",)),
    ),
    max_size=60,
)


def apply(registry, op) -> None:
    kind, name, label, value = op
    if kind == "inc":
        registry.counter(name, **label).inc(value)
    elif kind == "set":
        registry.gauge(name, **label).set(value)
    elif kind == "gauge_inc":
        registry.gauge(name, **label).inc(value)
    elif kind == "observe":
        registry.histogram(name, buckets=BUCKETS, **label).observe(value)
    elif value == "c":
        registry.counter(name, **label)
    elif value == "g":
        registry.gauge(name, **label)
    else:
        registry.histogram(name, buckets=BUCKETS, **label)


def entries(snapshot) -> dict:
    """``(kind, name, labels) → value`` of a snapshot or a delta."""
    return {
        (kind, name, tuple(map(tuple, key))): repr(value)
        for kind in ("counters", "gauges", "histograms")
        for name, key, value in snapshot.get(kind, ())
    }


@settings(max_examples=300, deadline=None)
@given(ops)
def test_merged_deltas_are_the_final_snapshot(session):
    registry = MetricsRegistry()
    folded = MetricsRegistry()
    cursor = None
    before: dict = {}
    for op in session + [("cursor",)]:
        if op[0] != "cursor":
            apply(registry, op)
            continue
        delta, cursor = registry.delta_since(cursor)
        now = entries(registry.snapshot())
        changed = {k for k, v in now.items() if before.get(k) != v}
        assert set(entries(delta or {})) == changed
        assert (delta is None) == (not changed)
        if delta is not None:
            folded.merge(delta)
        before = now
    assert folded.snapshot() == registry.snapshot()
