"""SWIM refutation under sustained 10% message loss.

The property, in both hosting environments: a node that is *alive but
looks flaky* (lost probes, lost acks) gets suspected — and the
refutation path clears every suspicion before its grace deadline, so a
live node is never confirmed dead by loss alone.

- in-sim: :class:`repro.faults.detector.SwimDetector` against the
  ``MessageLoss`` fault model inside the cycle simulator;
- live: :class:`repro.net.liveness.LiveSwimDetector` instances probing
  each other over real loopback UDP datagrams with receiver-side loss
  injection — every protocol leg (probe, probe-req, ack, suspicion,
  refutation) an actual unreliable datagram.
"""

import asyncio
import random

from repro.core.config import VitisConfig
from repro.core.protocol import VitisProtocol
from repro.faults import DetectorConfig, HealingPolicy, MessageLoss, SwimDetector
from repro.faults.detector import STATE_ALIVE
from repro.net.liveness import LiveSwimDetector
from repro.net.transport import UdpTransport
from tests.conftest import small_subscriptions


def test_in_sim_refutation_survives_sustained_ten_percent_loss():
    p = VitisProtocol(
        small_subscriptions(seed=5),
        VitisConfig(rt_size=10, n_sw_links=1),
        seed=5, election_every=0, relay_every=0,
    )
    p.run_cycles(40)
    p.finalize()
    det = SwimDetector(random.Random(6), DetectorConfig())
    p.attach_detector(det)
    p.attach_faults(MessageLoss(0.1, random.Random(106)), HealingPolicy())
    p.run_cycles(40)

    # Loss produced real probe misses and real suspicions...
    assert det.probe_misses > 0
    assert det.suspicions >= 1
    # ...and refutation (not expiry) resolved them: nobody died.
    assert det.refutations >= 1
    assert det.confirmations == 0
    assert p.false_evictions == 0
    for a in p.live_addresses():
        assert not det.confirmed(a)


def test_live_refutation_over_lossy_loopback_udp():
    async def run():
        period = 0.05
        rng = random.Random(0)
        # 10% receiver-side loss on both ends; all SWIM kinds ride the
        # transport's unreliable class, so every leg can genuinely drop.
        ta = await UdpTransport.create(0, random.Random(1), loss_rate=0.1)
        tb = await UdpTransport.create(1, random.Random(2), loss_rate=0.1)
        ta.endpoints[1] = tb.local_addr
        tb.endpoints[0] = ta.local_addr
        clock = asyncio.get_running_loop().time
        da = LiveSwimDetector(0, ta, rng, clock=clock, period=period,
                              candidates=lambda: [1], config=DetectorConfig())
        db = LiveSwimDetector(1, tb, rng, clock=clock, period=period,
                              candidates=lambda: [0], config=DetectorConfig())
        ta.on_message = da.on_message
        tb.on_message = db.on_message
        try:
            # Sustain suspicion pressure: plant B's obituary at A for a
            # few rounds (as consecutive missed probe rounds would),
            # while both detectors keep ticking over the lossy wire.
            for i in range(40):
                if i < 6:
                    da._suspect(1, clock())
                da.tick()
                db.tick()
                await asyncio.sleep(period)
            # B heard its obituary, outbid it, and the refutation (or a
            # delivered probe-ack) cleared A's suspicion before expiry.
            assert da.suspicions >= 1
            assert da._verdicts[1].state == STATE_ALIVE
            assert da.confirmations == 0
            assert db.incarnation >= 1  # B bumped to outbid the obituary
        finally:
            ta.close()
            tb.close()
    asyncio.run(run())


def test_on_transition_fires_once_per_verdict_change():
    """The observability hook reports each state *change* exactly once —
    re-suspicions, repeated acks and refutations stay silent."""
    class StubTransport:
        def __init__(self):
            self.sent = []

        def send(self, msg):
            self.sent.append(msg)

    from repro.sim.messages import ProbeAck, Refutation

    clock = [0.0]
    transitions = []
    det = LiveSwimDetector(
        0, StubTransport(), random.Random(3), clock=lambda: clock[0],
        period=1.0, candidates=lambda: [1, 2], config=DetectorConfig(),
        on_transition=lambda peer, prev, new: transitions.append(
            (peer, prev, new)),
    )

    det._suspect(1, clock[0])
    det._suspect(1, clock[0])  # re-suspicion: no new transition
    assert transitions == [(1, "alive", "suspect")]

    # A delivered ack clears the suspicion (suspect -> alive), once.
    det.on_message(ProbeAck(src=1, dst=0, target=1, incarnation=0))
    det.on_message(ProbeAck(src=1, dst=0, target=1, incarnation=0))
    assert transitions == [(1, "alive", "suspect"), (1, "suspect", "alive")]

    # Suspect again, let the grace deadline blow: suspect -> dead.
    det._suspect(1, clock[0])
    clock[0] = 1000.0
    det._confirm_round(clock[0])
    assert transitions[-1] == (1, "suspect", "dead")
    assert det.verdict_counts() == {"suspect": 0, "dead": 1}

    # Ground-truth datagram from the "dead" peer resurrects it.
    det.note_heard(1)
    assert transitions[-1] == (1, "dead", "alive")
    assert det.verdict_counts() == {"suspect": 0, "dead": 0}

    # Refutation path: suspect 2, then its newer incarnation clears it.
    det._suspect(2, clock[0])
    det.on_message(Refutation(src=2, dst=0, target=2, incarnation=5))
    assert transitions[-2:] == [(2, "alive", "suspect"),
                                (2, "suspect", "alive")]
