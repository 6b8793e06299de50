"""Span arithmetic and wrapper hygiene of benchmarks/perf/tracing.py."""

import types

import pytest

import tracing
from tracing import Tracer, aggregate


class FakeClock:
    """A perf_counter that advances only when told to."""

    def __init__(self):
        self.now = 100.0

    def __call__(self):
        return self.now

    def spend(self, seconds):
        self.now += seconds


@pytest.fixture
def clock(monkeypatch):
    c = FakeClock()
    monkeypatch.setattr(tracing, "perf_counter", c)
    return c


def test_nested_spans_subtract_children_from_self_time(clock):
    t = Tracer()
    with t.span("outer"):
        clock.spend(1.0)
        with t.span("inner"):
            clock.spend(2.0)
            with t.span("leaf"):
                clock.spend(4.0)
        clock.spend(0.5)
    agg = aggregate(t.closed_spans())
    assert agg["leaf"]["self_s"] == pytest.approx(4.0)
    assert agg["inner"]["self_s"] == pytest.approx(2.0)
    assert agg["inner"]["total_s"] == pytest.approx(6.0)
    assert agg["outer"]["self_s"] == pytest.approx(1.5)
    assert agg["outer"]["total_s"] == pytest.approx(7.5)


def test_sibling_spans_accumulate_calls_and_self_time(clock):
    t = Tracer()
    with t.span("root"):
        for cost in (1.0, 2.0, 3.0):
            with t.span("child"):
                clock.spend(cost)
    agg = aggregate(t.closed_spans())
    assert agg["child"]["calls"] == 3
    assert agg["child"]["self_s"] == pytest.approx(6.0)
    assert agg["root"]["self_s"] == pytest.approx(0.0)


def test_self_times_plus_unattributed_remainder_sum_to_wall(clock):
    t = Tracer()
    t.rep = 0
    with t.span("bench.repetition"):
        clock.spend(0.25)  # nobody's: the unattributed remainder
        with t.span("a"):
            clock.spend(1.0)
            with t.span("b"):
                clock.spend(2.0)
        with t.span("b"):
            clock.spend(0.75)
    spans = t.closed_spans()
    root = next(s for s in spans if s[0] == "bench.repetition")
    wall = root[2] - root[1]
    assert sum(s[5] for s in spans) == pytest.approx(wall)
    agg = aggregate(spans, timed_only=True)
    assert agg["bench.repetition"]["self_s"] == pytest.approx(0.25)
    assert agg["b"]["self_s"] == pytest.approx(2.75)


def test_spans_record_parent_index_and_repetition(clock):
    t = Tracer()
    with t.span("setup"):
        clock.spend(1.0)
    t.rep = 3
    with t.span("rep"):
        with t.span("work"):
            clock.spend(1.0)
    spans = t.closed_spans()
    by_name = {s[0]: (i, s) for i, s in enumerate(spans)}
    assert by_name["setup"][1][3] == -1 and by_name["setup"][1][4] is None
    assert by_name["work"][1][3] == by_name["rep"][0]
    assert by_name["work"][1][4] == 3
    assert set(aggregate(spans, timed_only=True)) == {"rep", "work"}


def test_span_closes_when_the_wrapped_call_raises(clock):
    class Boom:
        def go(self):
            clock.spend(1.0)
            raise ValueError("boom")

    t = Tracer()
    t.wrap(Boom, "go", "boom.go")
    try:
        with pytest.raises(ValueError):
            Boom().go()
    finally:
        t.restore()
    assert aggregate(t.closed_spans())["boom.go"]["self_s"] == pytest.approx(1.0)
    assert t._stack == []


def test_wrappers_restore_originals_exactly():
    class Base:
        def inherited(self):
            return "base"

        def own(self):
            return "own"

    class Child(Base):
        def own(self):
            return "child-own"

    module = types.ModuleType("fake_module")
    module.fn = lambda x: x + 1
    original_fn = module.fn
    original_own = vars(Child)["own"]
    instance = Child()

    seen = []
    t = Tracer()
    t.wrap(Child, "inherited", "child.inherited")
    t.wrap(Child, "own", "child.own", on_exit=lambda r, s, a: seen.append(r))
    t.wrap(module, "fn", "module.fn")
    t.wrap(instance, "own", "instance.own")

    assert "inherited" in vars(Child)
    assert Child().inherited() == "base" and Child().own() == "child-own"
    assert module.fn(1) == 2 and instance.own() == "child-own"
    assert seen == ["child-own", "child-own"]  # the instance wrapper calls through
    assert {s[0] for s in t.closed_spans()} == {
        "child.inherited", "child.own", "module.fn", "instance.own",
    }

    t.restore()
    assert "inherited" not in vars(Child)  # was only inherited: deleted, not copied
    assert vars(Child)["own"] is original_own
    assert module.fn is original_fn
    assert "own" not in vars(instance)
    assert Base.inherited is vars(Base)["inherited"]


def test_harness_boundaries_are_restored_after_a_traced_quick_run():
    import harness

    before = {
        name: vars(owner).get(attr) for name, (owner, attr) in harness.BOUNDARIES.items()
    }
    report = harness.run_workload("publish_static", seed=3, seconds=10, trace=True, quick=True)
    after = {
        name: vars(owner).get(attr) for name, (owner, attr) in harness.BOUNDARIES.items()
    }
    assert before == after
    assert "lookup" not in vars(harness.VitisProtocol)
    assert report["metrics"]["core.dissemination.publish.calls"]["value"] > 0
