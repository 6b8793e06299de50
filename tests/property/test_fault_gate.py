"""The flood's transmission gate as a mechanism (``_make_transmit`` and
the hooked branch of the one BFS in ``core/dissemination.py``).

Hypothesis plants the small random overlays of
``test_dissemination_paths.py``, shuns a few ground-truth-alive nodes
(what an attached detector does to ``protocol.liveness``), attaches a
fault model whose verdicts are a drawn script and, on some examples, a
tiny bounded inbox per node — then publishes one event twice: through
:func:`~repro.core.dissemination.disseminate`, and through
:func:`by_the_book`, a naive transcription of the gate's contract:

    per BFS edge, in forwarding order: perceived liveness first (a
    refused target costs no trial); then up to ``1 + delivery_retries``
    trials, stopping at the first that gets through (one trial only
    toward a backpressured inbox); then the inbox's admission.

Both must ask the fault model the same ``(src, dst, kind, now)``
questions in the same order and offer the inboxes the same messages,
and agree on faults, retries, deferrals, sheds, every per-node message
count and every delivery hop.

The transcription asks liveness on every edge; the BFS asks once per
node per event (plus the publisher, which sits in ``seen`` unchecked).
They agree because no verdict changes inside an event.
"""

from collections import Counter, deque

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.dissemination import disseminate, forwarding_targets
from repro.faults import FaultModel, HealingPolicy
from repro.sim.capacity import CapacityModel, NodeCapacity
from tests.property.test_dissemination_paths import MAX_NODES, overlays, plant


class ScriptedFaults(FaultModel):
    """Answers ``drop`` from a fixed script (cycled) and records every
    question it was asked."""

    def __init__(self, script) -> None:
        super().__init__()
        self.script = script
        self.calls = []

    def drop(self, src, dst, kind, now):
        verdict = self.script[len(self.calls) % len(self.script)]
        self.calls.append((src, dst, kind, now))
        self.injected += verdict
        return verdict


class RecordingInboxes(CapacityModel):
    """The real bounded inboxes, recording every message offered."""

    def __init__(self, capacity) -> None:
        super().__init__(capacity)
        self.calls = []

    def offer(self, src, dst, kind, now):
        self.calls.append((src, dst, kind, now))
        return super().offer(src, dst, kind, now)


@st.composite
def gated_overlays(draw):
    overlay = draw(overlays())
    shunned = draw(st.sets(st.integers(min_value=0, max_value=MAX_NODES - 1), max_size=3))
    script = draw(st.lists(st.booleans(), min_size=1, max_size=24))
    retries = draw(st.integers(min_value=0, max_value=3))
    queue_depth = draw(st.none() | st.integers(min_value=1, max_value=4))
    return overlay, frozenset(shunned), script, retries, queue_depth


def gated(overlay, shunned, script, retries, queue_depth):
    """A planted overlay with the scripted faults (and inboxes) attached
    and ``shunned`` refused by perceived liveness."""
    subs, links, _topic, _publisher, crashed, seed = overlay
    p = plant(subs, links, crashed, seed)
    p.liveness = lambda a: p.is_alive(a) and a not in shunned
    p.attach_faults(ScriptedFaults(script), HealingPolicy(delivery_retries=retries))
    if queue_depth is not None:
        p.attach_capacity(RecordingInboxes(NodeCapacity(
            queue_depth=queue_depth, policy="drop_newest", backpressure_at=0.5,
        )))
    return p


def by_the_book(p, topic, publisher):
    """One event through the gate's contract, written for reading."""
    out = {
        "faults": 0, "retries": 0, "deferred": 0, "shed": 0,
        "interested": Counter(), "relay": Counter(), "delivered": {},
    }
    if not p.is_alive(publisher):
        return out
    fm, cap, now = p.fault_model, p.capacity, p.engine.now
    tries = 1 + p.healing.delivery_retries
    members = p.sub_index.get(topic, ())
    audience = p.subscribers(topic) - {publisher}
    seen = {publisher}
    queue = deque()

    def receive(u, v, hop):
        out["interested" if v in members else "relay"][v] += 1
        if v not in seen:
            seen.add(v)
            if v in audience:
                out["delivered"][v] = hop
            queue.append((v, hop, u))

    initial, path = p.publisher_targets(publisher, topic)
    queue.append((publisher, 0, None))
    # The injection path was gated by the lookup that produced it.
    prev = publisher
    for hop, v in enumerate(path[1:], start=1):
        if not p.liveness(v):
            break
        receive(prev, v, hop)
        prev = v

    while queue:
        u, hop, sender = queue.popleft()
        for v in (initial if sender is None else forwarding_targets(p, u, topic)):
            if v == sender or not p.liveness(v):
                continue
            budget = tries
            withheld = (
                cap is not None and budget > 1 and cap.backpressured(v, now)
            )
            if withheld:
                budget = 1
            sent = 0
            delivered = False
            while sent < budget and not delivered:
                sent += 1
                delivered = not fm.drop(u, v, "notify", now)
            out["faults"] += sent - delivered
            out["retries"] += sent - 1
            if not delivered:
                out["deferred"] += withheld
                continue
            if cap is not None:
                admitted = cap.offer(u, v, "notify", now)
                p.network.account_logical(u, v, "notify", admitted)
                if not admitted:
                    out["shed"] += 1
                    continue
            receive(u, v, hop + 1)
    return out


@settings(max_examples=150, deadline=None)
@given(gated_overlays())
def test_the_gate_asks_what_the_book_asks(case):
    overlay, shunned, script, retries, queue_depth = case
    topic, publisher = overlay[2], overlay[3]

    flooded = gated(overlay, shunned, script, retries, queue_depth)
    rec = disseminate(flooded, topic, publisher)
    reference = gated(overlay, shunned, script, retries, queue_depth)
    book = by_the_book(reference, topic, publisher)

    assert flooded.fault_model.calls == reference.fault_model.calls
    if queue_depth is not None:
        assert flooded.capacity.calls == reference.capacity.calls
        assert flooded.network.shed_by_addr == reference.network.shed_by_addr
    assert (rec.faults, rec.retries, rec.deferred, rec.shed) == (
        book["faults"], book["retries"], book["deferred"], book["shed"],
    )
    assert rec.interested_msgs == book["interested"]
    assert rec.relay_msgs == book["relay"]
    assert rec.delivered_hops == book["delivered"]
