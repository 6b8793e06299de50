"""Event dissemination (paper section III-C).

When a node publishes an event on topic ``t``:

1. it notifies its routing-table neighbors interested in ``t`` (and its
   relay-tree neighbors if it is on the tree);
2. every interested receiver floods the notification on inside its cluster
   (to all cluster-adjacent interested nodes except the sender);
3. gateways forward along their relay path; relay nodes and the rendezvous
   forward along all other tree branches; gateways of the other clusters
   flood inward.

A node forwards a given event only once (duplicate suppression), but
duplicate *deliveries* still count as traffic — that is what the overhead
metric measures.

The rule a node applies is stated once, in :func:`forwarding_rule`.
:func:`disseminate` is the one implementation of the flood: a BFS over
the current overlay that counts exactly the messages the protocol would
send, feeding the rule the oracle's view (the symmetric
``cluster_adjacency`` and the relay trees).  The experiment harness
grades every figure with it; per-message engine round-trips dominate at
paper scale.  The node a deployment runs
(:class:`~repro.core.deployment.DeployedVitisNode`) feeds the same rule
the state it has learned from messages, and on a frozen, zero-latency
overlay whose learned state is fresh its own flood is the message-level
reference the BFS is tested against: the same deliveries, hop counts and
message counts.
"""

from __future__ import annotations

from collections import deque
from typing import TYPE_CHECKING, Callable, Collection, Dict, Iterable, List, Optional, Set, Tuple

from repro.faults.models import MessageLoss
from repro.obs.spans import (
    CAUSE_DEAD_NODE,
    CAUSE_FALSE_EVICTION,
    CAUSE_FAULTED_LINK,
    CAUSE_NO_PATH,
    CAUSE_PARTITION,
    CAUSE_SHED,
    CAUSE_UNEXPLAINED,
    HOP_FLOOD,
    HOP_LOOKUP,
    HOP_PUBLISH,
    HOP_RELAY,
    HOP_RENDEZVOUS,
    SpanRecorder,
)
from repro.sim.metrics import DisseminationRecord

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.protocol import VitisProtocol

__all__ = ["disseminate", "forwarding_rule", "forwarding_targets"]


def forwarding_rule(
    address: int,
    flood: Iterable[int],
    tree: Iterable[int],
    next_hop: Optional[Callable[[], Optional[int]]] = None,
) -> Set[int]:
    """Whom node ``address`` notifies when it forwards an event: section
    III-C's rule over whichever view of the overlay the caller holds.

    ``flood`` is the node's cluster-adjacent neighbours that share the
    topic (empty unless the node subscribes) and ``tree`` its relay-tree
    neighbours for the topic; the node never notifies itself.  When
    neither leaves anyone, ``next_hop`` — handed in only for a
    publisher's injection and for a node that neither subscribes nor
    sits on the tree — names one greedy step toward ``hash(topic)``, or
    None where no neighbour is closer.

    The set is built in a fixed order (``flood`` copied, ``tree``
    added, the node discarded), which :func:`_compile_topic` mirrors: a
    forwarding table iterates as the set it snapshots.
    """
    targets = set(flood)
    targets.update(tree)
    targets.discard(address)
    if not targets and next_hop is not None:
        nxt = next_hop()
        if nxt is not None:
            targets.add(nxt)
    return targets


def forwarding_targets(protocol: "VitisProtocol", address: int, topic: int) -> Set[int]:
    """The oracle's :func:`forwarding_rule` for ``address``: interested
    nodes flood to their neighbours in the topic's symmetric cluster
    adjacency, and any node on the topic's relay tree also forwards
    along the tree.
    """
    node = protocol.nodes[address]
    flood = (
        protocol.cluster_adjacency(topic).get(address, ())
        if node.profile.subscribes_to(topic) else ()
    )
    return forwarding_rule(address, flood, node.relay.tree_neighbors(topic))


class _TopicMemo:
    """Everything dissemination memoises for one ``(topic,
    topology_version)``: a publish phase disseminates many events over a
    frozen overlay, so forwarding targets, the live audience and — on an
    un-hooked flood — the whole outcome repeat event after event.

    The topic is compiled when its memo first serves a flood: every live
    subscriber's forwarding-targets tuple is written in one pass over the
    topic's cluster adjacency (:func:`_compile_topic`).  Other nodes —
    relay-only and injection-path nodes — are filled lazily as the BFS
    first forwards from them.
    """

    __slots__ = (
        "version", "targets", "live_subs", "publisher_targets", "audience",
        "replay",
    )

    def __init__(self, version) -> None:
        self.version = version
        #: addr → forwarding-targets tuple.  Each tuple snapshots the
        #: iteration order of the set a fresh :func:`forwarding_targets`
        #: call would build (identical within one version), keeping the
        #: BFS byte-identical to uncached walks.  Complete for the live
        #: subscribers once ``live_subs`` is set.
        self.targets: Dict[int, tuple] = {}
        #: The topic's live subscribers, or None until the topic is
        #: compiled.
        self.live_subs: Optional[frozenset] = None
        #: publisher → ``(targets, injection_path)`` of lookup-free
        #: publishes (see :func:`default_publisher_targets`).
        self.publisher_targets: Dict[int, tuple] = {}
        #: publisher → the live subscribers minus that publisher.
        self.audience: Dict[int, frozenset] = {}
        #: publisher → ``(interested_msgs, relay_msgs, delivered_hops,
        #: transmissions)`` of its first un-hooked flood or gated flood
        #: that lost no transmission in full (see :func:`disseminate`).
        self.replay: Dict[int, tuple] = {}


def _topic_cache(protocol: "VitisProtocol", topic: int) -> _TopicMemo:
    """The topic's memo for the current topology version.

    It piggybacks on the protocol's ``topology_version`` — the exact key
    ``cluster_adjacency`` (the dominant input) is already cached under,
    and every sanctioned topology or liveness write bumps it — so
    staleness semantics are unchanged.  The cache holds the current
    version only: the first memo of a new version drops every older one.
    """
    version = protocol.topology_version
    cache = protocol._fwd_cache
    entry = cache.get(topic)
    if entry is None or entry.version != version:
        if cache and next(iter(cache.values())).version != version:
            cache.clear()
        entry = cache[topic] = _TopicMemo(version)
    return entry


def _compile_topic(protocol: "VitisProtocol", topic: int, memo: _TopicMemo) -> frozenset:
    """Set ``memo.live_subs`` and write every live subscriber's
    forwarding-targets tuple, reading the cluster adjacency once.

    The set operations are :func:`forwarding_rule`'s own, in its
    order — the adjacency set copied, the tree neighbours added from a
    list ``[parent, *children]`` (an update from the children *set*
    would take CPython's set-merge path, which resizes differently), the
    node itself discarded — so every tuple iterates as the lazy fill's
    would.  A subscriber the version's adjacency does not hold (possible
    in message mode, where the version is the clock) floods along its
    tree neighbours alone, as there.  RVR's adjacency is empty, so it
    compiles nothing.
    """
    live_subs = memo.live_subs = frozenset(protocol.subscribers(topic))
    adj = protocol.cluster_adjacency(topic)
    if adj:
        nodes = protocol.nodes
        targets = memo.targets
        for a in live_subs:
            out = set(adj.get(a, ()))
            relay = nodes[a].relay
            p = relay.parent.get(topic)
            kids = relay.children.get(topic)
            if kids:
                out.update([p, *kids] if p is not None else [*kids])
            elif p is not None:
                out.add(p)
            out.discard(a)
            targets[a] = tuple(out)
    return live_subs


def _targets_fn(protocol: "VitisProtocol", topic: int):
    """``addr → forwarding targets`` for miss attribution, sharing the
    memo the BFS fills (the BFS itself reads the memo inline)."""
    memo = _topic_cache(protocol, topic).targets

    def targets_of(u: int):
        t = memo.get(u)
        if t is None:
            t = memo[u] = tuple(forwarding_targets(protocol, u, topic))
        return t

    return targets_of


def _classify_hop(
    protocol: "VitisProtocol", topic: int, u: int, v: int, publisher: int
) -> str:
    """The hop kind of a ``u → v`` notification (tracing only).

    Flood beats tree when both apply (a gateway's tree neighbor can also
    be cluster-adjacent; the intra-cluster edge is the cheaper
    explanation); a tree edge leaving the rendezvous is a rendezvous
    dispatch; anything else is either the publisher's direct injection or
    generic relay traffic.
    """
    node_u = protocol.nodes[u]
    if node_u.profile.subscribes_to(topic):
        adj = protocol.cluster_adjacency(topic)
        if v in adj.get(u, ()):
            return HOP_FLOOD
    if v in node_u.relay.tree_neighbors(topic):
        if u == protocol.relay_stats.rendezvous.get(topic):
            return HOP_RENDEZVOUS
        return HOP_RELAY
    return HOP_PUBLISH if u == publisher else HOP_RELAY


def _liveness_cause(protocol: "VitisProtocol", v: int) -> str:
    """Why a perceived-dead next hop blocked a transmission: genuinely
    dead, or a live node the overlay wrongly evicted and now shuns."""
    return CAUSE_DEAD_NODE if not protocol.is_alive(v) else CAUSE_FALSE_EVICTION


def default_publisher_targets(
    protocol: "VitisProtocol", publisher: int, topic: int
) -> Tuple[Collection[int], List[int]]:
    """Vitis publisher behaviour (``OverlaySystem.publisher_targets``):
    start inside the publisher's cluster and/or its relay-tree position;
    a publisher that is neither in a cluster of the topic nor on its
    relay tree injects the event by a rendezvous lookup (Scribe-style
    publishing), whose hops are accounted as relay traffic.

    Returns ``(targets, injection_path)``.  The result is memoised per
    publisher in the topic's memo, but only when it required no
    rendezvous lookup — the no-lookup path reads nothing but
    version-cached topology, so replaying the same object is
    observationally identical to recomputing it.  A live subscriber of a
    compiled topic with non-empty forwarding targets is served its
    compiled tuple, which iterates in the order of the set it was made
    from; every other publisher gets a fresh set.
    """
    topic_memo = _topic_cache(protocol, topic)
    memo = topic_memo.publisher_targets
    hit = memo.get(publisher)
    if hit is not None:
        return hit
    live_subs = topic_memo.live_subs
    if live_subs is not None and publisher in live_subs:
        compiled = topic_memo.targets.get(publisher)
        if compiled:
            hit = memo[publisher] = (compiled, [])
            return hit
    targets = forwarding_targets(protocol, publisher, topic)
    node = protocol.nodes[publisher]
    if not node.profile.subscribes_to(topic):
        # Not in any cluster: it may still know interested RT neighbors.
        for baddr, _ in node.rt.links():
            p = protocol.profile_of(baddr)
            if p is not None and p.subscribes_to(topic):
                targets.add(baddr)
    if targets:
        hit = memo[publisher] = (targets, [])
        return hit
    lr = protocol.lookup(publisher, protocol.topic_id(topic))
    if lr.success and len(lr.path) > 1:
        return set(), lr.path
    return set(), []


def disseminate(
    protocol: "VitisProtocol",
    topic: int,
    publisher: int,
    event_id: int = 0,
    count_pulls: bool = False,
) -> DisseminationRecord:
    """Disseminate one event over the current overlay (fast path).

    One BFS serves every configuration.  Message counts, first receipts
    and deliveries are accounted inline; everything optional — the
    fault/capacity ``transmit`` gate, the ``link_cost`` hook, pulls and
    tracing — sits behind one ``hooked`` flag, so the common experiment
    configuration (none of them) pays a few local branches per message
    and nothing else; the per-receipt extras (spans, pulls) sit behind a
    second, so a flood with only faults attached enters no receipt hook.
    Under an exact :class:`~repro.faults.models.MessageLoss` and no
    inbox the edge body draws each transmission's first trial itself
    (:func:`_inline_loss`) and enters the gate only when it was lost.

    A repeat publish of a ``(topic, publisher)`` within one topology
    version replays the memoised outcome instead of walking: verbatim
    when un-hooked, and under that loss alone (no spans, pulls or
    ``link_cost``; a live publisher with a lookup-free start) by drawing
    the first trials of the recorded transmission count in the walk's
    order, a lost one entering the gate as in the walk.  A transmission
    lost in full resumes the walk there: the transmissions before it are settled without a draw
    and it is refused, so every RNG value is drawn once, as the walk
    draws it.

    With ``count_pulls``, the notify-then-pull exchange of section III-C
    is accounted as well: on *first* receipt of a notification, the
    receiver pulls the payload from its notifier — one request handled by
    the notifier, one reply handled by the receiver.  Duplicate
    notifications trigger no pull (the event id is already known).

    Under ``telemetry.tracing`` the whole cascade is additionally
    recorded as a span tree (:mod:`repro.obs.spans`): one span per first
    receipt, failure spans for transmissions a fault/capacity model ate,
    and a ``miss`` event attributing every unreached subscriber to a
    concrete cause.  All of it is RNG-free and state-free (attribution
    never calls ``fault_model.drop`` or ``capacity.offer``), preserving
    the zero-cost-off byte-identity contract.
    """
    memo = _topic_cache(protocol, topic)
    live_subs = memo.live_subs
    if live_subs is None:
        live_subs = _compile_topic(protocol, topic, memo)
    # The same publisher floods many events per frozen topology, and
    # the audience is a frozenset — share one object across them.
    subs = memo.audience.get(publisher)
    if subs is None:
        subs = memo.audience[publisher] = live_subs - {publisher}
    rec = DisseminationRecord(
        topic=topic,
        event_id=event_id,
        publisher=publisher,
        subscribers=subs,
    )
    tel = protocol.telemetry
    spans: Optional[SpanRecorder] = None
    span_of: Dict[int, int] = {}
    failures: Optional[Dict[Tuple[int, int], str]] = None
    if tel.tracing:
        spans = SpanRecorder(tel, tel.next_trace_id(), protocol.engine.now)
        rec.trace_id = spans.trace_id
        failures = {}
        span_of[publisher] = spans.root(
            HOP_PUBLISH, publisher, topic=topic, event=event_id,
            publisher=publisher, subs=len(subs),
        )
    if not protocol.is_alive(publisher):
        if spans is not None:
            for m in sorted(subs):
                spans.miss(m, CAUSE_DEAD_NODE, dst=publisher)
        return rec

    # The BFS forwards along *perceived* liveness: with a detector
    # attached, confirmed-dead nodes are shunned even while ground-truth
    # alive — their missed deliveries are attributed to false_eviction.
    is_alive = protocol.liveness
    link_cost = protocol.link_cost
    transmit = _make_transmit(protocol, rec, failures)
    cap = protocol.capacity
    loss_rate, loss_draw = _inline_loss(protocol.fault_model, cap)
    on_receipt = spans is not None or count_pulls
    hooked = on_receipt or transmit is not None or link_cost is not None
    targets = memo.targets
    # Interest is profile membership; the subscription index holds the
    # same information as a live set per topic, turning the per-delivery
    # check into one hash lookup.
    members = protocol.sub_index.get(topic, ())
    imsgs = rec.interested_msgs
    rmsgs = rec.relay_msgs
    iget = imsgs.get
    rget = rmsgs.get
    delivered = rec.delivered_hops

    # A ``publisher_targets`` that injects nothing may leave a miss-cause
    # hint (e.g. RVR's backpressure deferral) for the tracing layer.
    protocol._injection_miss_cause = None
    initial_targets, injection_path = protocol.publisher_targets(publisher, topic)
    inject_cause = protocol._injection_miss_cause

    # Perceived liveness is asked once per node per event: a target in
    # ``seen`` passed the check when it was first reached, and no verdict
    # changes inside an event.  The publisher alone sits in ``seen``
    # unchecked — a detector-shunned one must still be refused.
    publisher_ok = hooked and is_alive(publisher)
    # Whole-outcome replay: within one topology version the un-hooked
    # flood is fully deterministic (greedy routing is rng-free, liveness
    # verdicts only change with a version bump, and no hook draws
    # randomness), so a repeat publish of the same (topic, publisher)
    # replays the first flood's message counts and delivery hops
    # verbatim.  A flood gated only by an exact ``MessageLoss`` takes the
    # same trajectory whenever no transmission is lost in full — given a
    # live publisher and a lookup-free start, every counted message is
    # one gated transmission — so its repeat draws the loss trials of
    # the recorded transmission count instead of walking.
    replays = not hooked or bool(
        loss_rate and not on_receipt and link_cost is None
        and initial_targets and not injection_path and publisher_ok
    )
    # Gated transmissions whose trials a replay already drew: all but
    # the last got through, the last was lost in full.
    settle = 0
    if replays:
        hit = memo.replay.get(publisher)
        if hit is not None:
            if hooked:
                # The recorded transmissions' trials, in walk order; the
                # gate reads no endpoint without an inbox or tracing.
                for k in range(hit[3]):
                    if loss_draw() < loss_rate and not transmit(publisher, publisher, 1):
                        settle = k + 1
                        break
            if not settle:
                imsgs.update(hit[0])
                rmsgs.update(hit[1])
                delivered.update(hit[2])
                return rec

    now = protocol.engine.now
    net = protocol.network

    def first_receipt(u: int, v: int, hop: int, kind: Optional[str]) -> None:
        """The hooked extras of ``v`` first hearing of the event from
        ``u``: its span (tracing) and its pull round-trip (pulls)."""
        interested = v in members
        if spans is not None:
            if kind is None:
                kind = _classify_hop(protocol, topic, u, v, publisher)
            sid = span_of[v] = spans.hop(span_of.get(u), kind, u, v, hop)
            if interested and v in subs:
                spans.deliver(sid, v, hop)
        if not count_pulls:
            return
        # Pull round-trip along the same edge: the request is handled by
        # the notifier, the reply by the receiver.  Under a capacity
        # model the round-trip is gated as one unit: a backpressured
        # notifier defers the pull to a later batch, a shed
        # request/reply cancels it.
        if cap is not None:
            if cap.backpressured(u, now):
                rec.deferred += 1
                return
            pull_ok = cap.offer(v, u, "pull", now)
            net.account_logical(v, u, "pull", pull_ok)
            if pull_ok:
                pull_ok = cap.offer(u, v, "pull", now)
                net.account_logical(u, v, "pull", pull_ok)
            if not pull_ok:
                rec.shed += 1
                return
        rec.pull_requests += 1
        rec.pull_replies += 1
        tally = imsgs if u in members else rmsgs
        tally[u] = tally.get(u, 0) + 1
        tally = imsgs if interested else rmsgs
        tally[v] = tally.get(v, 0) + 1
        if link_cost is not None:
            rec.physical_cost += 2.0 * link_cost(u, v)

    seen: Set[int] = {publisher}
    # Queue entries: (address, hop_at_which_it_received, sender).  The
    # publisher is the first entry (no sender), so its initial targets
    # run through the same edge body as every forwarder's.
    queue: deque = deque([(publisher, 0, None)])

    # Hop-by-hop relay toward the rendezvous; every path node is a
    # receiver and forwards per its own state afterwards.  The hops were
    # already checked by the lookup that produced the path, so no
    # transmit gate applies and the first dead node ends the injection.
    prev = publisher
    for hop, v in enumerate(injection_path[1:], start=1):
        if not is_alive(v):
            if spans is not None:
                cause = failures[(prev, v)] = _liveness_cause(protocol, v)
                spans.failure(span_of.get(prev), HOP_LOOKUP, prev, v, hop, cause)
            break
        interested = v in members
        tally = imsgs if interested else rmsgs
        tally[v] = tally.get(v, 0) + 1
        if link_cost is not None:
            rec.physical_cost += link_cost(prev, v)
        if v not in seen:
            seen.add(v)
            if interested and v in subs:
                delivered[v] = hop
            queue.append((v, hop, prev))
            if on_receipt:
                first_receipt(prev, v, hop, HOP_LOOKUP)
        prev = v

    while queue:
        u, hop, sender = queue.popleft()
        hop += 1
        if sender is None:
            out = initial_targets
        else:
            out = targets.get(u)
            if out is None:
                out = targets[u] = tuple(forwarding_targets(protocol, u, topic))
        for v in out:
            if v == sender:
                continue
            reached = v in seen
            if hooked:
                if reached:
                    ok = publisher_ok or v != publisher
                else:
                    ok = is_alive(v)
                if not ok:
                    if spans is not None:
                        failures[(u, v)] = _liveness_cause(protocol, v)
                elif loss_rate:
                    if settle:
                        # Drawn by the replay this walk resumes.
                        settle -= 1
                        ok = settle > 0
                    # The first trial, drawn as ``MessageLoss.drop`` draws
                    # it; only a lost one enters the gate.
                    elif loss_draw() < loss_rate:
                        ok = transmit(u, v, 1)
                elif transmit is not None:
                    ok = transmit(u, v)
                if not ok:
                    if spans is not None:
                        spans.failure(
                            span_of.get(u),
                            _classify_hop(protocol, topic, u, v, publisher),
                            u, v, hop, failures.get((u, v), CAUSE_UNEXPLAINED),
                        )
                    continue
                if link_cost is not None:
                    rec.physical_cost += link_cost(u, v)
            if reached:
                # Already received once this event: only the duplicate
                # message is accounted.
                if v in members:
                    imsgs[v] = iget(v, 0) + 1
                else:
                    rmsgs[v] = rget(v, 0) + 1
            elif hooked or is_alive(v):
                seen.add(v)
                if v in members:
                    imsgs[v] = iget(v, 0) + 1
                    if v in subs:
                        delivered[v] = hop
                else:
                    rmsgs[v] = rget(v, 0) + 1
                queue.append((v, hop, u))
                if on_receipt:
                    first_receipt(u, v, hop, None)

    if replays and rec.faults == rec.retries:
        # No transmission was lost in full: the ungated trajectory.
        memo.replay[publisher] = (
            imsgs.copy(), rmsgs.copy(), dict(delivered),
            sum(imsgs.values()) + sum(rmsgs.values()),
        )
    elif spans is not None:
        _attribute_misses(
            protocol, topic, rec, spans, seen, failures,
            initial_targets, injection_path, inject_cause,
        )
    return rec


def _attribute_misses(
    protocol: "VitisProtocol",
    topic: int,
    rec: DisseminationRecord,
    spans: SpanRecorder,
    seen: Set[int],
    failures: Dict[Tuple[int, int], str],
    initial_targets: Collection[int],
    injection_path: List[int],
    inject_cause: Optional[str],
) -> None:
    """Attribute every missed delivery of one event to a concrete cause.

    Tracing-only, and strictly read-only against the protocol: it
    re-walks the overlay with the *pure* :func:`forwarding_targets`
    topology (no fault RNG, no capacity mutation), so a traced run stays
    byte-identical to an untraced one.

    Soundness: if a node ``u`` is in the gated BFS's ``seen`` set, the
    gated pass attempted every one of ``u``'s forwarding edges, so any
    ungated-path edge leaving ``seen`` at ``u`` was genuinely attempted
    and its failure cause was recorded (fault/partition/shed by the
    transmit gate, dead next hops inline).  Walking a miss's ungated path
    root→miss, the first edge crossing out of ``seen`` is therefore the
    blocking edge, and its recorded cause is the miss's cause.  A miss
    the ungated walk cannot even reach has no relay path at all.
    """
    missed = sorted(rec.subscribers - set(rec.delivered_hops))
    if not missed:
        return
    publisher = rec.publisher
    if not initial_targets and not injection_path:
        # The publisher injected nothing: either its rendezvous lookup
        # failed (no relay path to the topic's tree) or a hook deferred
        # the injection and left a cause hint (RVR backpressure).
        cause = inject_cause or CAUSE_NO_PATH
        for m in missed:
            spans.miss(m, cause)
        return

    # Ungated reachability pass over the same topology the gated BFS
    # walked, seeded with the publisher's attempted frontier.  Sorted
    # iteration keeps parent choice (and so the reported blocking edge)
    # deterministic.
    targets_of = _targets_fn(protocol, topic)
    parent_of: Dict[int, Optional[int]] = {publisher: None}
    order: deque = deque()

    def reach(u: int, v: int) -> None:
        if v not in parent_of:
            parent_of[v] = u
            order.append(v)

    if injection_path:
        prev = publisher
        for v in injection_path[1:]:
            reach(prev, v)
            prev = v
    for v in sorted(initial_targets):
        reach(publisher, v)
    while order:
        u = order.popleft()
        for v in sorted(targets_of(u)):
            reach(u, v)

    is_alive = protocol.is_alive
    liveness = protocol.liveness
    false_edges = protocol.false_evicted_edges
    augmented: Optional[Set[int]] = None

    def reached_via_false_edges(m: int) -> bool:
        """Would ``m`` have been reachable had the falsely-torn-down
        routing-table edges still existed?  Lazily computed once: a BFS
        from the attempted frontier over ``forwarding_targets`` augmented
        with the live-endpoint false-evicted edges (an approximation of
        the pre-eviction topology — good enough to attribute, read-only
        like the rest of this pass)."""
        nonlocal augmented
        if augmented is None:
            extra: Dict[int, List[int]] = {}
            for fu, fv in false_edges:
                if is_alive(fu) and is_alive(fv):
                    extra.setdefault(fu, []).append(fv)
            reached = set(parent_of)
            frontier = deque(sorted(reached))
            while frontier:
                u = frontier.popleft()
                nxt = set(targets_of(u))
                nxt.update(extra.get(u, ()))
                for v in sorted(nxt):
                    if v not in reached and is_alive(v):
                        reached.add(v)
                        frontier.append(v)
            augmented = reached
        return m in augmented

    for m in missed:
        if m not in parent_of:
            if false_edges and reached_via_false_edges(m):
                spans.miss(m, CAUSE_FALSE_EVICTION)
            else:
                spans.miss(m, CAUSE_NO_PATH)
            continue
        path: List[int] = []
        cur: Optional[int] = m
        while cur is not None:
            path.append(cur)
            cur = parent_of[cur]
        path.reverse()
        cause, src, dst = CAUSE_UNEXPLAINED, None, None
        for u, v in zip(path, path[1:]):
            if u in seen and v not in seen:
                src, dst = u, v
                if not is_alive(v):
                    cause = CAUSE_DEAD_NODE
                elif not liveness(v):
                    # Ground-truth alive but shunned by the detector.
                    cause = CAUSE_FALSE_EVICTION
                else:
                    cause = failures.get((u, v), CAUSE_UNEXPLAINED)
                break
        spans.miss(m, cause, src, dst)


def _inline_loss(fm, cap=None) -> Tuple[float, Optional[Callable[[], float]]]:
    """``(rate, draw)`` when a loss trial may be drawn in place of a
    ``fm.drop`` call, else ``(0.0, None)``.

    Only an exact :class:`MessageLoss` with a nonzero rate qualifies: its
    ``drop`` is the one expression ``draw() < rate`` on its own RNG plus
    the ``injected`` count, so evaluating it in place draws the same
    numbers in the same order without a Python frame per trial.  A
    subclass, or any other model, keeps its ``drop``.  With an inbox
    ``cap`` attached the flood enters the gate for admission anyway, so
    nothing is drawn ahead of it.  The same condition lets a repeat
    publish replay its flood by drawing the trials alone (see
    :func:`disseminate`).
    """
    if cap is None and type(fm) is MessageLoss and fm.rate:
        return fm.rate, fm._rng.random
    return 0.0, None


def _make_transmit(
    protocol: "VitisProtocol",
    rec: DisseminationRecord,
    failures: Optional[Dict[Tuple[int, int], str]] = None,
):
    """The per-edge transmission gate of the fast path, or None.

    None on a perfect, unbounded transport (zero-cost-off: the BFS takes
    the exact pre-fault branches and consumes no RNG).  With a fault
    model attached, each notify edge is one logical transmission the
    model may eat; a healing policy grants ``DELIVERY_RETRIES`` resends
    per edge.  With a capacity model attached, each surviving
    transmission must also be admitted by the receiver's bounded inbox
    (a refusal is a shed the sender does not resend), and backpressure
    couples the two: a sender seeing the receiver's inbox past its
    threshold withholds the fault-retry budget on that edge — deferring
    to the next batch instead of blindly resending into a saturated
    queue.  Faults, retries, sheds and deferrals accumulate on the
    record (the injection path is *not* gated here — its hops were
    already checked by the lookup that produced it).

    ``failures`` (tracing only) collects the cause of each refused edge
    for miss attribution; classifying a fault as partition-vs-loss uses
    the RNG-free ``fault_model.severed`` predicate, so recording causes
    never perturbs the run.

    ``transmit(u, v, lost)`` finishes a transmission whose first
    ``lost`` trials the caller already drew and lost (see
    :func:`_inline_loss`); an exact ``MessageLoss`` has its remaining
    trials drawn in place too, and the gate counts every inline loss in
    its ``injected``.
    """
    fm = protocol.fault_model
    cap = protocol.capacity
    if fm is None and cap is None:
        return None
    drop = fm.drop if fm is not None else None
    rate, draw = _inline_loss(fm)
    healing = protocol.healing
    tries = 1 + (healing.DELIVERY_RETRIES if healing is not None else 0)
    now = protocol.engine.now
    net = protocol.network

    def transmit(u: int, v: int, lost: int = 0) -> bool:
        if drop is not None:
            budget = tries
            bp = cap is not None and budget > 1 and cap.backpressured(v, now)
            if bp:
                budget = 1
            # One trial per transmission, stopping at the first that gets
            # through; ``drops == budget`` means the message is lost.
            drops = lost
            if draw is None:
                while drops < budget and drop(u, v, "notify", now):
                    drops += 1
            else:
                while drops < budget and draw() < rate:
                    drops += 1
            if drops:
                if draw is not None:
                    fm.injected += drops
                rec.faults += drops
                if drops < budget:
                    rec.retries += drops
                else:
                    rec.retries += budget - 1
                    if bp:
                        # The withheld retries might have saved this edge;
                        # the sender chose to re-batch rather than pile on.
                        rec.deferred += 1
                    if failures is not None:
                        failures[(u, v)] = (
                            CAUSE_PARTITION if fm.severed(u, v, now)
                            else CAUSE_FAULTED_LINK
                        )
                    return False
        if cap is not None:
            admitted = cap.offer(u, v, "notify", now)
            net.account_logical(u, v, "notify", admitted)
            if not admitted:
                rec.shed += 1
                if failures is not None:
                    failures[(u, v)] = CAUSE_SHED
                return False
        return True

    return transmit
