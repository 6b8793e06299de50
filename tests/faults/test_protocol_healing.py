"""Protocol-level fault injection and self-healing.

Covers the attach/detach contract, lookup timeout-and-retry with
route-around, relay-tree repair after rendezvous crashes, and the
heartbeat-eviction path (``age_and_evict`` / OPT ``prune_dead``) under
sustained crash churn.
"""

import random

import pytest

from repro.baselines.opt import OptProtocol
from repro.core.config import VitisConfig
from repro.core.protocol import VitisProtocol
from repro.core.routing_table import LinkKind, RoutingTable
from repro.faults import (
    FaultModel,
    HealingPolicy,
    MessageLoss,
    Partition,
    crash_nodes,
)
from tests.conftest import small_subscriptions


class _DropFirstLookups(FaultModel):
    """Eats the first ``n`` lookup transmissions, nothing else."""

    def __init__(self, n: int) -> None:
        super().__init__()
        self._remaining = n

    def drop(self, src, dst, kind, now):
        if kind == "lookup" and self._remaining > 0:
            self._remaining -= 1
            self.injected += 1
            return True
        return False


def _small_vitis(seed: int = 5, cycles: int = 40) -> VitisProtocol:
    p = VitisProtocol(
        small_subscriptions(seed=seed),
        VitisConfig(rt_size=10, n_sw_links=1),
        seed=seed,
        election_every=0,
        relay_every=0,
    )
    p.run_cycles(cycles)
    p.finalize()
    return p


def _small_opt(seed: int = 5, cycles: int = 15) -> OptProtocol:
    p = OptProtocol(
        small_subscriptions(seed=seed),
        VitisConfig(rt_size=10),
        seed=seed,
    )
    p.run_cycles(cycles)
    return p


class TestAttachFaults:
    def test_attach_reaches_the_network(self):
        p = _small_vitis(cycles=5)
        model = MessageLoss(0.1, random.Random(0))
        healing = HealingPolicy()
        p.attach_faults(model, healing)
        assert p.fault_model is model and p.network.fault_model is model
        assert p.healing is healing

    def test_detach_restores_the_perfect_transport(self):
        p = _small_vitis(cycles=5)
        p.attach_faults(MessageLoss(0.1, random.Random(0)), HealingPolicy())
        p.attach_faults(None)
        assert p.fault_model is None and p.network.fault_model is None
        assert p.healing is None
        # The transport's telemetry is wired at construction (drop events
        # flow regardless of fault state), not managed by attach/detach.
        assert p.network.telemetry is p.telemetry


class TestLookupHealing:
    def test_zero_rate_model_is_transparent(self):
        """With a rate-0 model attached the faulted lookup path must find
        the exact same rendezvous as the plain path (same tie-breaks)."""
        p = _small_vitis()
        starts = sorted(p.live_addresses())[:10]
        tids = [p.topic_id(t) for t in p.topics()[:10]]
        plain = [p.lookup(s, t).path for s, t in zip(starts, tids)]

        class _NoDraw:
            def random(self):  # pragma: no cover - regression only
                raise AssertionError("rate-0 model must not draw")

        p.attach_faults(MessageLoss(0.0, _NoDraw()), HealingPolicy())
        faulted = [p.lookup(s, t).path for s, t in zip(starts, tids)]
        assert faulted == plain
        assert p.fault_retries == 0

    def test_total_loss_exhausts_bounded_retries(self):
        p = _small_vitis()
        start = sorted(p.live_addresses())[0]
        # A target the start node must actually route toward (hops > 0);
        # a start that is already the local minimum never needs a link.
        tid = next(
            p.topic_id(t) for t in p.topics()
            if p.lookup(start, p.topic_id(t)).hops > 0
        )
        p.attach_faults(
            MessageLoss(1.0, random.Random(0)),
            HealingPolicy(),
        )
        result = p.lookup(start, tid)
        assert not result.success
        assert p.fault_retries == 2  # attempts - 1, all spent

    def test_single_drop_is_routed_around(self):
        """One eaten next-hop falls back to the next-best candidate within
        the same attempt — the lookup still succeeds, zero retries."""
        p = _small_vitis()
        start = sorted(p.live_addresses())[0]
        tid = next(
            p.topic_id(t) for t in p.topics()
            if p.lookup(start, p.topic_id(t)).hops > 0
        )
        model = _DropFirstLookups(1)
        p.attach_faults(model, HealingPolicy())
        result = p.lookup(start, tid)
        assert result.success
        assert model.injected == 1
        assert p.fault_retries == 0

    def test_faulted_lookup_is_deterministic(self):
        p = _small_vitis()
        start = sorted(p.live_addresses())[0]
        tid = p.topic_id(p.topics()[3])
        paths = []
        for _ in range(2):
            p.attach_faults(MessageLoss(0.5, random.Random(9)), HealingPolicy())
            r = p.lookup(start, tid)
            paths.append((r.path, r.success))
        assert paths[0] == paths[1]


class TestRepairRelays:
    def test_noop_on_a_healthy_system(self):
        p = _small_vitis()
        assert p.repair_relays() == 0
        assert p.fault_repairs == 0

    def test_rendezvous_crash_is_repaired(self):
        p = _small_vitis()
        # Pick a rendezvous that roots at least one subscribed topic.
        rv_topics = {}
        for topic, rv in p.relay_stats.rendezvous.items():
            if p.subscribers(topic):
                rv_topics.setdefault(rv, []).append(topic)
        rv, topics = max(rv_topics.items(), key=lambda kv: len(kv[1]))
        crash_nodes(p, (rv,))

        repaired = p.repair_relays()
        assert repaired >= len(topics)
        assert p.fault_repairs == repaired
        # Every repaired topic roots at a live node again.
        for topic in topics:
            new_rv = p.relay_stats.rendezvous.get(topic)
            assert new_rv is not None and p.is_alive(new_rv)
        # Delivery over the repaired trees is complete again.
        topic = topics[0]
        pub = sorted(p.subscribers(topic))[0]
        rec = p.publish(topic, pub)
        assert set(rec.delivered_hops) == set(rec.subscribers)

    def test_dead_parent_is_repaired(self):
        p = _small_vitis()
        # Crash an interior relay (a parent that is not itself the root).
        victim = None
        for topic, rv in p.relay_stats.rendezvous.items():
            for node in p.nodes.values():
                if not node.alive:
                    continue
                parent = node.relay.parent.get(topic)
                if parent is not None and parent != rv and p.is_alive(parent):
                    victim = parent
                    break
            if victim is not None:
                break
        assert victim is not None, "no interior relay found"
        crash_nodes(p, (victim,))
        assert p.repair_relays() >= 1
        # No live node keeps a dead parent afterwards.
        for node in p.nodes.values():
            if node.alive:
                for parent in node.relay.parent.values():
                    assert p.is_alive(parent)


class TestAgeAndEvictUnit:
    def _table(self):
        rt = RoutingTable(owner=0, max_size=4)
        rt.replace([
            (1, 100, 0, LinkKind.SUCCESSOR),
            (2, 200, 0, LinkKind.PREDECESSOR),
            (3, 300, 0, LinkKind.FRIEND),
        ])
        return rt

    def test_dead_evicted_exactly_past_threshold(self):
        rt = self._table()
        alive = lambda a: a != 3
        threshold = 5
        for _ in range(threshold):
            assert rt.age_and_evict(alive, threshold) == []
        assert rt.age_and_evict(alive, threshold) == [3]
        assert 3 not in rt

    def test_live_neighbors_never_evicted(self):
        rt = self._table()
        for _ in range(50):
            assert rt.age_and_evict(lambda a: True, 5) == []
        assert sorted(rt.addresses) == [1, 2, 3]
        assert all(e.age == 0 for e in rt)

    def test_reappearing_neighbor_resets_its_age(self):
        rt = self._table()
        threshold = 5
        for _ in range(threshold):
            rt.age_and_evict(lambda a: a != 3, threshold)
        # It answers once just in time: the age resets, nothing is evicted.
        assert rt.age_and_evict(lambda a: True, threshold) == []
        assert rt.age_and_evict(lambda a: a != 3, threshold) == []
        assert 3 in rt


class TestEvictionUnderChurn:
    def test_vitis_routing_tables_shed_crashed_nodes(self):
        """Sustained crash waves: every corpse disappears from every live
        routing table within a small multiple of the staleness threshold
        (a corpse can be re-learned from a stale gossip view, which
        restarts its age clock — the exact one-threshold bound holds at
        the table level, see ``TestAgeAndEvictUnit``)."""
        p = _small_vitis()
        threshold = p.config.STALENESS_THRESHOLD
        rng = random.Random(17)
        dead = set()

        def corpses_linked():
            return any(
                dead & set(node.rt.addresses)
                for node in p.nodes.values() if node.alive
            )

        for _wave in range(3):
            live = sorted(p.live_addresses())
            victims = rng.sample(live, 5)
            crash_nodes(p, victims)
            dead.update(victims)
            for _ in range(8 * threshold):
                p.run_cycles(1)
                if not corpses_linked():
                    break
            assert not corpses_linked()
        assert p.live_count() == 80 - len(dead)

    def test_opt_prunes_crashed_neighbors(self):
        p = _small_opt()
        rng = random.Random(3)
        victims = rng.sample(sorted(p.live_addresses()), 10)
        crash_nodes(p, victims)
        p.run_cycles(1)  # prune_dead runs every cycle
        dead = set(victims)
        for node in p.nodes.values():
            if node.alive:
                assert not dead & node.neighbors

    def test_opt_prunes_severed_neighbors_while_partitioned(self):
        p = _small_opt()
        live = sorted(p.live_addresses())
        model = Partition.halves(
            live, start=p.engine.now, heal_at=float("inf")
        )
        p.attach_faults(model, HealingPolicy())
        p.run_cycles(1)
        group = model._group_of
        for node in p.nodes.values():
            if node.alive:
                for b in node.neighbors:
                    assert group[b] == group[node.address]
