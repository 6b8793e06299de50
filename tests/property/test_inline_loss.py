"""The flood's in-place loss trial against ``MessageLoss.drop``.

Under an exact :class:`~repro.faults.MessageLoss` and no inbox, the
edge loops of :func:`~repro.core.dissemination.disseminate` and of OPT's
flood draw a transmission's first trial themselves and enter the gate
only when it was lost; the gate draws the remaining trials in place too
(``_inline_loss``).  A subclass of ``MessageLoss`` is not exactly one,
so its twin takes the ``drop`` path for every trial.

Hypothesis plants the small overlays of ``test_dissemination_paths.py``
(for Vitis, with a few ground-truth-alive nodes shunned; for OPT, as its
negotiated links), draws a loss rate (0.0 and 1.0 included), a retry
budget of 0–3, sometimes a tiny bounded inbox and sometimes tracing,
and builds twins whose loss models share a seed.  The RNG's draws are
multiples of 1/4, so a draw equal to the rate — where ``<`` and ``<=``
disagree — is common.  After every publish the twins must agree on every
record field, ``injected``, ``fault_retries``, inbox sheds, the trace,
and the model RNG's state; and the subclass must have been asked once
per draw.

A repeat publish under an exact ``MessageLoss`` replays the recorded
flood instead of walking it: it draws the trials of the recorded
transmission count, and a transmission lost in full resumes the walk
there.  The twins therefore also publish one ``(topic, publisher)`` 4–8
times in one topology version, sometimes after an un-hooked publish of
it (``attach_faults`` bumps no version, so that flood's record is the
one replayed).  The publisher is sometimes shunned, sometimes one that
injects by a rendezvous walk; neither may replay.  The subclass twin
walks every time; both RNGs must have drawn equally often.
"""

import dataclasses
import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines.opt import OptProtocol
from repro.core.config import VitisConfig
from repro.faults import HealingPolicy, MessageLoss
from repro.sim.capacity import CapacityModel
from tests.core.test_span_tracing import captured_telemetry, events_of
from tests.property.test_dissemination_paths import MAX_NODES, MAX_TOPICS, overlays, plant
from tests.property.test_fault_gate import HalfWatermark


class CoarseRandom(random.Random):
    """A seeded RNG whose draws are multiples of 1/4, counted."""

    def __init__(self, seed) -> None:
        super().__init__(seed)
        self.draws = 0

    def random(self):
        self.draws += 1
        return int(super().random() * 4) / 4


class ViaDrop(MessageLoss):
    """``MessageLoss`` itself, except that it is a subclass: the flood
    must call this ``drop`` for every trial."""

    def __init__(self, rate, rng) -> None:
        super().__init__(rate, rng)
        self.calls = 0

    def drop(self, src, dst, kind, now):
        self.calls += 1
        return super().drop(src, dst, kind, now)


@st.composite
def cases(draw):
    overlay = draw(overlays())
    system = draw(st.sampled_from(["vitis", "opt"]))
    rate = draw(st.sampled_from([0.0, 0.25, 0.5, 0.75, 1.0]) | st.floats(0.0, 1.0))
    retries = draw(st.integers(min_value=0, max_value=3))
    shunned = draw(st.sets(st.integers(min_value=0, max_value=MAX_NODES - 1), max_size=3))
    queue_depth = draw(st.none() | st.integers(min_value=1, max_value=4))
    traced = system == "vitis" and draw(st.booleans())
    publishes = draw(st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=MAX_TOPICS - 1),
            st.integers(min_value=0, max_value=MAX_NODES - 1),
        ),
        min_size=1, max_size=3,
    ))
    return overlay, system, rate, retries, frozenset(shunned), queue_depth, traced, publishes


def twin(case, model_cls):
    overlay, system, rate, retries, shunned, queue_depth, traced, _ = case
    subs, links, _topic, _publisher, crashed, seed = overlay
    if system == "vitis":
        p = plant(subs, links, crashed, seed)
        p.liveness = lambda a: p.is_alive(a) and a not in shunned
    else:
        p = OptProtocol(subs, VitisConfig(rt_size=MAX_NODES), seed=seed, max_degree=None)
        for a, neighbours in enumerate(links):
            p.nodes[a].neighbors = set(neighbours)
        p.topology_version += 1
        if crashed is not None:
            p.leave(crashed)
    healing = type("DrawnHealing", (HealingPolicy,), {"DELIVERY_RETRIES": retries})()
    p.attach_faults(model_cls(rate, CoarseRandom(seed)), healing)
    if queue_depth is not None:
        p.attach_capacity(CapacityModel(HalfWatermark(
            queue_depth=queue_depth, policy="drop_newest",
        )))
    buf = None
    if traced:
        p.telemetry, buf = captured_telemetry()
    return p, buf


@settings(max_examples=200, deadline=None)
@given(cases())
def test_the_inline_trial_is_the_drop_call(case):
    exact, exact_buf = twin(case, MessageLoss)
    via, via_buf = twin(case, ViaDrop)
    n = len(exact.nodes)
    for topic, publisher in case[-1]:
        publisher %= n
        a = exact.publish(topic, publisher)
        b = via.publish(topic, publisher)
        assert dataclasses.asdict(a) == dataclasses.asdict(b)
        fa, fb = exact.fault_model, via.fault_model
        assert fa.injected == fb.injected
        assert exact.fault_retries == via.fault_retries
        assert fa._rng.getstate() == fb._rng.getstate()
        assert fa._rng.draws == fb._rng.draws
        assert exact.network.shed_by_addr == via.network.shed_by_addr
        # The subclass was asked for every trial it drew.
        assert fb.calls == fb._rng.draws if fb.rate else fb._rng.draws == 0
    if exact_buf is not None:
        assert simulated(exact_buf) == simulated(via_buf)


@st.composite
def repeats(draw):
    subs, links, topic, publisher, crashed, seed = draw(overlays())
    # Half the time a publisher that neither subscribes nor knows a
    # subscriber: it injects the event by a rendezvous walk, if any.
    outsiders = [
        a for a, s in enumerate(subs)
        if topic not in s and not any(topic in subs[b] for b in links[a])
    ]
    if outsiders and draw(st.booleans()):
        publisher = draw(st.sampled_from(outsiders))
    overlay = subs, links, topic, publisher, crashed, seed
    rate = draw(st.sampled_from([0.25, 0.5, 0.75, 1.0]) | st.floats(0.0, 1.0))
    retries = draw(st.integers(min_value=0, max_value=3))
    shunned = draw(st.sets(st.integers(min_value=0, max_value=MAX_NODES - 1), max_size=3))
    if draw(st.booleans()):
        shunned.add(publisher)
    # A stale relay pointer at the publisher, as churn leaves them: the
    # one way a flood sends the event back to its publisher, which a
    # shunned publisher refuses and an un-hooked flood counts.
    stale = draw(st.sampled_from(range(len(subs))))
    unhooked_first = draw(st.booleans())
    times = draw(st.integers(min_value=4, max_value=8))
    publishes = [(topic, publisher)] * times
    case = (overlay, "vitis", rate, retries, frozenset(shunned), None, False, publishes)
    return case, stale, unhooked_first


@settings(max_examples=500, deadline=None)
@given(repeats())
def test_a_repeat_publish_draws_what_its_walk_would(repeat):
    case, stale, unhooked_first = repeat
    exact, _ = twin(case, MessageLoss)
    via, _ = twin(case, ViaDrop)
    topic, publisher = case[-1][0]
    for p in (exact, via):
        if stale != publisher:
            p.nodes[stale].relay.set_parent(topic, publisher)
            p.topology_version += 1
    if unhooked_first:
        for p in (exact, via):
            model, healing = p.fault_model, p.healing
            p.attach_faults(None)
            p.publish(topic, publisher)
            p.attach_faults(model, healing)
    for _ in case[-1]:
        a = exact.publish(topic, publisher)
        b = via.publish(topic, publisher)
        assert dataclasses.asdict(a) == dataclasses.asdict(b)
        fa, fb = exact.fault_model, via.fault_model
        assert fa.injected == fb.injected
        assert exact.fault_retries == via.fault_retries
        assert fa._rng.getstate() == fb._rng.getstate()
        assert fa._rng.draws == fb._rng.draws


def simulated(buf):
    """The trace's events without their wall-clock stamps."""
    return [{k: v for k, v in e.items() if k != "wall"} for e in events_of(buf)]
