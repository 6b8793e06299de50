"""Property-based tests for the discrete-event engine."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.engine import Engine

delays = st.lists(
    st.floats(min_value=0.0, max_value=1000.0, allow_nan=False),
    min_size=0,
    max_size=40,
)


class TestEventOrdering:
    @given(delays)
    def test_events_fire_in_time_order(self, ds):
        e = Engine()
        fired = []
        for d in ds:
            e.schedule(d, lambda d=d: fired.append(e.now))
        e.run()
        assert fired == sorted(fired)
        assert len(fired) == len(ds)

    @given(delays)
    def test_clock_monotone(self, ds):
        e = Engine()
        stamps = []
        for d in ds:
            e.schedule(d, lambda: stamps.append(e.now))
        last = -1.0
        while e.pending:
            e.run(max_events=1)
            assert e.now >= last
            last = e.now

    @given(delays, st.floats(min_value=0.0, max_value=1000.0, allow_nan=False))
    def test_run_until_horizon_respected(self, ds, horizon):
        e = Engine()
        fired = []
        for d in ds:
            e.schedule(d, lambda d=d: fired.append(d))
        e.run(until=horizon)
        assert all(d <= horizon for d in fired)
        assert e.now >= min([horizon] + [d for d in ds if d <= horizon] or [0])

    @given(delays)
    def test_split_run_equals_full_run(self, ds):
        def run_split(split_at):
            e = Engine()
            fired = []
            for d in ds:
                e.schedule(d, lambda d=d: fired.append(d))
            e.run(until=split_at)
            e.run()
            return fired

        e = Engine()
        fired_full = []
        for d in ds:
            e.schedule(d, lambda d=d: fired_full.append(d))
        e.run()
        assert run_split(500.0) == fired_full

    @given(delays, st.integers(min_value=0, max_value=40))
    @settings(max_examples=50)
    def test_max_events_is_prefix(self, ds, k):
        e1, e2 = Engine(), Engine()
        f1, f2 = [], []
        for d in ds:
            e1.schedule(d, lambda d=d: f1.append(d))
            e2.schedule(d, lambda d=d: f2.append(d))
        e1.run()
        e2.run(max_events=k)
        assert f2 == f1[:k]


# ----------------------------------------------------------------------
# Differential suite: random programs against a sorted-list reference
# ----------------------------------------------------------------------
class _ModelHandle:
    def __init__(self, time, order, callback, args):
        self.time, self.order, self.callback, self.args = time, order, callback, args
        self.cancelled = False


class ModelEngine:
    """The reference: a list kept sorted by ``(time, scheduling order)``.

    ``pending`` is counted by scanning, a handle that left the list is
    inert because nothing looks at it again, and a cancelled entry is
    dropped when it reaches the head of a ``run`` — the one
    laziness of the real engine a program can observe (by un-cancelling
    afterwards).
    """

    def __init__(self):
        self.queue, self.now, self.processed, self._order = [], 0.0, 0, 0

    @property
    def pending(self):
        return sum(not h.cancelled for h in self.queue)

    def schedule(self, delay, callback, *args):
        return self.schedule_at(self.now + delay, callback, *args)

    def schedule_at(self, when, callback, *args):
        h = _ModelHandle(when, self._order, callback, args)
        self._order += 1
        self.queue.append(h)
        self.queue.sort(key=lambda h: (h.time, h.order))
        return h

    def _fire(self, h):
        self.now = h.time
        h.callback(*h.args)
        self.processed += 1

    def run(self, until=None, max_events=None):
        executed = 0
        while self.queue:
            if max_events is not None and executed >= max_events:
                return
            h = self.queue[0]
            if not h.cancelled and until is not None and h.time > until:
                break
            del self.queue[0]
            if not h.cancelled:
                self._fire(h)
                executed += 1
        if until is not None and self.now < until:
            self.now = until


class _Interpreter:
    """Runs one program against one engine.  Every scheduled event is
    labelled by its position in ``handles``; firing appends ``(label,
    arguments received, now)`` to ``fired`` and then performs the
    event's own action, if it has one, from inside the run."""

    def __init__(self, engine):
        self.engine, self.handles, self.fired = engine, [], []

    def apply(self, op):
        name, *rest = op
        if name in ("schedule", "schedule_at"):
            offset, args, action = rest
            label = len(self.handles)

            def callback(*received):
                self.fired.append((label, received, self.engine.now))
                if action is not None:
                    self.apply(action)

            when = offset if name == "schedule" else self.engine.now + offset
            self.handles.append(getattr(self.engine, name)(when, callback, *args))
        elif name == "cancel":
            index, value = rest
            if self.handles:  # fired and queued handles alike
                self.handles[index % len(self.handles)].cancelled = value
        else:
            until, max_events = rest
            self.engine.run(
                until=None if until is None else self.engine.now + until,
                max_events=max_events,
            )

    def observe(self):
        e = self.engine
        return self.fired, e.now, e.pending, e.processed


# Half-second grid: equal instants are the common case, so FIFO among
# them (and a heap entry that falls through to comparing handles) shows.
_offsets = st.integers(min_value=0, max_value=6).map(lambda k: k / 2)
_args = st.lists(st.integers(0, 9), max_size=2).map(tuple)
_cancel = st.tuples(st.just("cancel"), st.integers(0, 99), st.booleans())


def _scheduling(action):
    return st.tuples(st.sampled_from(["schedule", "schedule_at"]), _offsets, _args, action)


_from_inside = st.one_of(st.none(), _cancel, _scheduling(st.one_of(st.none(), _cancel)))
_ops = st.one_of(
    _scheduling(_from_inside),
    _cancel,
    st.tuples(
        st.just("run"), st.one_of(st.none(), _offsets), st.one_of(st.none(), st.integers(0, 4))
    ),
)


@given(st.lists(_ops, max_size=40))
@settings(max_examples=400, deadline=None)
def test_random_programs_match_the_sorted_list_reference(program):
    real, model = _Interpreter(Engine()), _Interpreter(ModelEngine())
    for op in program:
        real.apply(op)
        model.apply(op)
        assert real.observe() == model.observe(), op
