"""SWIM failure detection (repro.faults.detector).

Covers the config knobs, the suspicion → refutation / confirmation state
machine against planted fault models, the attach/detach liveness-swap
contract (including detached byte-identity — the zero-cost-off promise),
false-eviction bookkeeping with the planted-topology delivery audit, and
the graceful-rejoin path.
"""

import io
import json
import random

import pytest

from repro import obs
from repro.core.config import VitisConfig
from repro.core.dissemination import disseminate
from repro.core.protocol import VitisProtocol
from repro.faults import (
    DetectorConfig,
    FaultModel,
    HealingPolicy,
    MessageLoss,
    SwimDetector,
    crash_nodes,
)
from repro.faults.detector import STATE_ALIVE
from repro.obs.audit import audit_trace
from tests.conftest import small_subscriptions


def _small_vitis(seed: int = 5, cycles: int = 40, telemetry=None):
    p = VitisProtocol(
        small_subscriptions(seed=seed),
        VitisConfig(rt_size=10, n_sw_links=1),
        seed=seed,
        election_every=0,
        relay_every=0,
        telemetry=telemetry,
    )
    p.run_cycles(cycles)
    p.finalize()
    return p


def _detector(seed: int = 0, **knobs) -> SwimDetector:
    return SwimDetector(random.Random(seed), DetectorConfig(**knobs))


class _Deafen(FaultModel):
    """Drops every probe-protocol leg touching ``target`` (so the target
    looks dead to all probes) while letting suspicion notices and
    refutations through — the exact shape that must *refute*, not evict."""

    def __init__(self, target: int) -> None:
        super().__init__()
        self.target = target

    def drop(self, src, dst, kind, now):
        if kind in ("probe", "probe_req", "ack") and self.target in (src, dst):
            self.injected += 1
            return True
        return False


class _Mute(FaultModel):
    """Like :class:`_Deafen` but also eats the suspicion notices and the
    refutations of ``target`` — a node that can neither hear nor answer
    its obituary must be confirmed dead even while ground-truth alive."""

    def __init__(self, target: int) -> None:
        super().__init__()
        self.target = target

    def drop(self, src, dst, kind, now):
        if kind in ("probe", "probe_req", "ack", "suspect", "refute") \
                and self.target in (src, dst):
            self.injected += 1
            return True
        return False


class TestDetectorConfig:
    def test_defaults(self):
        cfg = DetectorConfig()
        assert cfg.probe_fanout == 3
        assert cfg.suspicion_base == 0.5
        assert cfg.MIN_SUSPICION_CYCLES == 2

    def test_suspicion_scales_with_log_n(self):
        floor = type("Floor", (DetectorConfig,), {"MIN_SUSPICION_CYCLES": 1})
        cfg = floor(suspicion_base=1.0)
        assert cfg.suspicion_cycles(2) == 1
        assert cfg.suspicion_cycles(1024) == 10
        assert cfg.suspicion_cycles(2048) > cfg.suspicion_cycles(64)

    def test_floor_applies_to_tiny_groups(self):
        floor = type("Floor", (DetectorConfig,), {"MIN_SUSPICION_CYCLES": 4})
        cfg = floor(suspicion_base=0.5)
        assert cfg.suspicion_cycles(2) == 4
        assert cfg.suspicion_cycles(1) == 4  # degenerate n clamps to 2

    @pytest.mark.parametrize("knobs", [
        {"probe_fanout": -1},
        {"suspicion_base": -0.1},
    ])
    def test_rejects_bad_knobs(self, knobs):
        with pytest.raises(ValueError):
            DetectorConfig(**knobs)


class TestAttachDetach:
    def test_attach_swaps_the_liveness_predicate(self):
        p = _small_vitis(cycles=5)
        assert p.liveness == p.is_alive
        det = _detector()
        p.attach_detector(det)
        assert p.detector is det and det.protocol is p
        assert p.liveness == p._detector_liveness
        p.attach_detector(None)
        assert p.detector is None
        assert p.liveness == p.is_alive

    def test_detached_runs_are_byte_identical(self):
        """Attach-then-detach must leave no trace, also under message loss
        and a crash burst with healing: routing tables and dissemination
        records match a run that never saw a detector."""
        def run(touch_detector: bool, faulted: bool):
            p = _small_vitis(cycles=30)
            if touch_detector:
                p.attach_detector(_detector())
                p.attach_detector(None)
            if faulted:
                p.attach_faults(MessageLoss(0.05, random.Random(2)), HealingPolicy())
                crash_nodes(p, sorted(p.live_addresses())[:4])
            p.run_cycles(10)
            tables = {a: sorted(n.rt.addresses) for a, n in p.nodes.items()}
            records = [sorted(p.publish(t, min(p.subscribers(t))).delivered_hops.items())
                       for t in p.topics()[:15] if p.subscribers(t)]
            return tables, records

        for faulted in (False, True):
            assert run(False, faulted) == run(True, faulted)

    def test_detached_runs_consume_no_detector_rng(self):
        class _NoDraw:
            def choice(self, *_):  # pragma: no cover - regression only
                raise AssertionError("detached detector must not draw")
            shuffle = choice

        p = _small_vitis(cycles=5)
        p.attach_detector(SwimDetector(_NoDraw()))
        p.attach_detector(None)
        p.run_cycles(5)


class TestCrashConfirmation:
    def test_crashed_node_is_confirmed_and_purged(self):
        p = _small_vitis()
        det = _detector()
        p.attach_detector(det)
        victim = sorted(p.live_addresses())[3]
        crash_nodes(p, (victim,))
        p.run_cycles(12)
        assert det.confirmed(victim)
        assert det.confirmations >= 1
        assert victim in det.confirmed_at
        for a in p.live_addresses():
            assert victim not in p.nodes[a].rt
        # A genuinely dead eviction is never a false positive.
        assert p.false_evictions == 0
        assert p.fault_evictions >= 1
        assert not p.liveness(victim)

    def test_confirmed_node_is_shunned_by_liveness_only(self):
        p = _small_vitis()
        det = _detector()
        p.attach_detector(det)
        target = sorted(p.live_addresses())[0]
        det.force_confirm(target)
        assert p.is_alive(target)       # ground truth unchanged
        assert not p.liveness(target)   # the overlay acts on the verdict

    def test_only_a_gated_flood_refuses_echoes_to_a_shunned_publisher(self):
        """The publisher sits in the flood's ``seen`` set without ever
        passing the liveness check.  An un-hooked flood counts a message
        addressed back to it like any duplicate; with anything attached
        the per-edge liveness check runs and a detector-shunned publisher
        is refused — the asymmetry ``chaos_sweep`` pins."""
        from tests.property.test_dissemination_paths import plant

        # A chain 0 — 1 — 2 inside one cluster of topic 0, plus a stale
        # child pointer at 2: the one edge that leads back to publisher 0.
        p = plant([{0}, {0}, {0}], [[1], [2], []], None, seed=3)
        p.nodes[2].relay.add_child(0, 0)
        p.topology_version += 1
        det = _detector()
        p.attach_detector(det)
        det.force_confirm(0)
        assert p.is_alive(0) and not p.liveness(0)

        plain = disseminate(p, 0, 0)
        assert 0 in plain.interested_msgs
        echoes = plain.interested_msgs[0]
        assert echoes >= 1
        p.attach_faults(MessageLoss(0.0, random.Random(0)))
        gated = disseminate(p, 0, 0)
        assert 0 not in gated.interested_msgs
        assert gated.delivered_hops == plain.delivered_hops == {1: 1, 2: 2}
        assert gated.total_messages == plain.total_messages - echoes


class TestRefutation:
    def test_suspected_but_live_node_refutes_instead_of_dying(self):
        p = _small_vitis()
        det = _detector()
        p.attach_detector(det)
        target = sorted(p.live_addresses())[10]
        p.attach_faults(_Deafen(target), HealingPolicy())
        p.run_cycles(25)
        # Probes to the target all failed, so it was suspected — but the
        # refutation path cleared every suspicion before its deadline.
        assert det.probe_misses > 0
        assert det.suspicions >= 1
        assert det.refutations >= 1
        assert det.confirmations == 0
        assert not det.confirmed(target)
        assert p.false_evictions == 0
        # Each refutation of the target rode an incarnation bump (total
        # order of verdicts about one node).
        assert det._verdicts[target].incarnation >= 1

    def test_unhearable_node_is_falsely_confirmed(self):
        """The converse: when the obituary can neither be heard nor
        answered, SWIM *does* evict a live node — and books it as false."""
        p = _small_vitis()
        det = _detector()
        p.attach_detector(det)
        target = sorted(p.live_addresses())[10]
        p.attach_faults(_Mute(target), HealingPolicy())
        p.run_cycles(25)
        assert det.confirmed(target)
        assert p.false_evictions >= 1
        assert target in p.false_eviction_log
        assert any(target in e for e in p.false_evicted_edges)


class TestGracefulRejoin:
    def test_rejoin_clears_verdict_and_bumps_incarnation(self):
        p = _small_vitis()
        det = _detector()
        p.attach_detector(det)
        victim = sorted(p.live_addresses())[3]
        crash_nodes(p, (victim,))
        p.run_cycles(12)
        assert det.confirmed(victim)
        inc = det._verdicts[victim].incarnation
        p.rejoin(victim)
        assert p.is_alive(victim) and p.liveness(victim)
        assert det._verdicts[victim].state == STATE_ALIVE
        assert det._verdicts[victim].incarnation == inc + 1
        assert det.rejoins == 1

    def test_rejoin_clears_false_eviction_bookkeeping(self):
        p = _small_vitis()
        det = _detector()
        p.attach_detector(det)
        target = sorted(p.live_addresses())[0]
        det.force_confirm(target)
        assert target in p.false_eviction_log
        p.rejoin(target)
        assert target not in p.false_eviction_log
        assert not any(target in e for e in p.false_evicted_edges)

    def test_vitis_rejoin_reinstalls_relay_delivery(self):
        p = _small_vitis()
        victim = None
        for t in p.topics():
            subs = sorted(p.subscribers(t))
            if len(subs) >= 3:
                victim, topic = subs[-1], t
                break
        assert victim is not None
        crash_nodes(p, (victim,))
        p.run_cycles(8)
        p.rejoin(victim)
        p.run_cycles(2)
        rec = p.publish(topic, sorted(p.subscribers(topic))[0])
        assert victim in rec.delivered_hops


class TestFalseEvictionAudit:
    """Satellite: the planted-topology audit — a miss caused by a wrongly
    evicted live node must be attributed to ``false_eviction``."""

    def test_planted_false_eviction_is_attributed(self):
        buf = io.StringIO()
        tel = obs.Telemetry(trace=obs.TraceWriter(buf, flush_every=1))
        p = _small_vitis(telemetry=tel)
        det = _detector()
        p.attach_detector(det)
        # Plant: confirm a live *subscriber* dead — the liveness shun
        # (and the torn-down routing-table edges) must explain its miss.
        topic = next(t for t in p.topics() if len(p.subscribers(t)) >= 3)
        subs = sorted(p.subscribers(topic))
        publisher, victim = subs[0], subs[-1]
        det.force_confirm(victim)
        disseminate(p, topic, publisher, event_id=0)
        report = audit_trace(
            [json.loads(line) for line in buf.getvalue().splitlines()]
        )
        assert report.n_events == 1
        assert report.cause_totals().get("false_eviction", 0) >= 1
        assert report.ok, [vars(e) for e in report.failures()]
