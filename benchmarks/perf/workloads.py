"""The six benchmark workloads.

Each workload is one function ``instance(inst)``: it builds its inputs
from ``inst.seed`` alone, calls ``inst.setup_done()`` when everything the
timed part needs is ready, then runs ``inst.reps`` timed repetitions
through ``inst.timed()``.  The harness (:mod:`harness`) runs several such
instances per run, times the set-ups and takes the medians.  Every
instance of one run gets the same seed, so instances (and identical-state
repetitions inside one) must agree on every deterministic output; the
harness fails the run when they do not.

The program under test receives only generated inputs: a workload hands
``repro`` subscriptions, rates, schedules, RNG objects and messages, never
the seed's meaning or the workload's name.

Why these six, and what each one bypasses, is in ``README.md`` and, in
one line each, in ``BENCHMARK.json``.
"""

from __future__ import annotations

import asyncio
import dataclasses
import random
from time import perf_counter
from typing import Callable, Dict, List

from repro.core.config import VitisConfig
from repro.core.deployment import DeployedVitis
from repro.core.protocol import VitisProtocol
from repro.experiments import runner
from repro.experiments.scenarios import make_subscriptions
from repro.faults import HealingPolicy, MessageLoss
from repro.net import wire
from repro.net.transport import UNRELIABLE_KINDS, UdpTransport
from repro.sim import messages as M
from repro.sim.network import UniformLatency
from repro.workloads import (
    SkypeTrace,
    TwitterTrace,
    bucket_subscriptions,
    low_correlation_subscriptions,
    power_law_rates,
)

__all__ = ["WORKLOADS", "Workload"]


@dataclasses.dataclass(frozen=True)
class Workload:
    name: str
    #: What one op is (the unit of ``ops_per_s``).
    op: str
    instance: Callable
    #: Set-ups (instances) per run; ``setup_s`` is their median.
    instances: int
    #: Timed repetitions per instance at the reference ``--seconds``.
    reps: int
    #: Sizes: the full benchmark and the ``--quick`` smoke variant.
    full: Dict[str, int]
    quick: Dict[str, int]


def _total_messages(collector) -> int:
    return sum(r.total_messages for r in collector.records)


# ----------------------------------------------------------------------
# twitter_build — converge + finalize on a Twitter-like sample
# ----------------------------------------------------------------------
def twitter_build(inst) -> None:
    z, seed = inst.sizes, inst.seed
    with inst.span("workloads.twitter_trace"):
        trace = TwitterTrace(z["users"], min_out=3, seed=seed)
        subs = trace.bfs_sample(z["sample"], seed=seed).subscriptions()
    protocols = [
        VitisProtocol(subs, VitisConfig(), seed=seed, election_every=0, relay_every=0)
        for _ in range(inst.reps)
    ]
    inst.setup_done()

    for p in protocols:
        with inst.timed() as rep:
            # runner.converge's loop, cut into its chunks so the host is
            # sampled between them: gossip until the ring holds, then
            # finalize — build_vitis without the constructor.
            p.run_cycles(z["min_cycles"])
            while not inst.ring_check(p) and p.cycle < z["max_cycles"]:
                rep.checkpoint()
                p.run_cycles(runner.CONVERGE_CHUNK)
            rep.checkpoint()
            p.finalize()
            rep.ops = len(subs) * p.cycle
        converged = inst.ring_check(p)
        if not converged:
            rep.failed = rep.ops
        col = inst.measure(p, z["events"], seed=seed + 1, publisher="owner")
        inst.identical(
            "build",
            {
                "cycles": p.cycle,
                "converged": converged,
                "summary": col.summary(),
                "messages": _total_messages(col),
                "relay": p.relay_stats.as_dict(),
            },
            col,
        )


# ----------------------------------------------------------------------
# publish_static / publish_faulty — dissemination on a converged overlay
# ----------------------------------------------------------------------
def _publish_overlay(inst, telemetry=None) -> VitisProtocol:
    z, seed = inst.sizes, inst.seed
    with inst.span("workloads.subscriptions"):
        rates = power_law_rates(z["topics"], 1.0, seed=seed)
        subs = make_subscriptions("high", z["nodes"], z["topics"], seed)
    # min_cycles=50: most seeds' rings hold by then, so the set-up does
    # the same work on (nearly) every seed instead of 40, 50 or 60 cycles.
    return runner.build_vitis(
        subs, VitisConfig(), seed=seed, rates=rates, min_cycles=z["min_cycles"],
        telemetry=telemetry,
    )


def publish_static(inst) -> None:
    z, seed = inst.sizes, inst.seed
    p = _publish_overlay(inst, telemetry=inst.telemetry)
    inst.setup_done()

    for _ in range(inst.reps):
        # Idempotent, and a sanctioned topology write: it opens a fresh
        # topology_version, so every repetition starts with cold
        # dissemination caches and replays the same first-touch/repeat mix.
        p.install_relays()
        with inst.timed() as rep:
            col = inst.measure(p, z["events"], seed=seed + 1)
            rep.ops = len(col)
        inst.identical(
            "publish",
            {"summary": col.summary(), "messages": _total_messages(col)},
            col,
        )


def publish_faulty(inst) -> None:
    z, seed = inst.sizes, inst.seed
    p = _publish_overlay(inst)
    model = MessageLoss(0.05, random.Random(f"perf-faults-{seed}"))
    healing = HealingPolicy()
    p.attach_faults(model, healing)
    inst.setup_done()

    for k in range(inst.reps):
        # As in publish_static: every window starts from cold dissemination
        # caches, so the windows are equal in kind.  Without it each window
        # runs faster than the one before (measured +20 %, then +10 %).
        # The relays are re-installed on a perfect transport: the faults
        # are for the dissemination, not for building the trees.
        p.attach_faults(None)
        p.install_relays()
        p.attach_faults(model, healing)
        with inst.timed() as rep:
            col = inst.measure(p, z["events"], seed=seed + 1 + k)
            rep.ops = len(col)
        # Misses under loss are the hit ratio, not failed operations.
        inst.collector.extend(col.records)
        inst.output(
            f"window{k}",
            {"summary": col.summary(), "messages": _total_messages(col)},
        )
    inst.output(
        "faults",
        {"injected": model.injected, "retries": p.fault_retries, "repairs": p.fault_repairs},
    )
    inst.counts["faults.injected"] = model.injected
    inst.counts["faults.retries"] = p.fault_retries


# ----------------------------------------------------------------------
# churn_flash — the Fig. 12 Vitis trial around its flash crowd
# ----------------------------------------------------------------------
def churn_flash(inst) -> None:
    z, seed = inst.sizes, inst.seed
    with inst.span("workloads.skype_trace"):
        trace = SkypeTrace(
            n_nodes=z["pool"],
            horizon=z["horizon"],
            flash_crowd_at=z["flash_at"],
            median_session=60.0,
            median_offtime=120.0,
            seed=seed,
        )
        schedule = trace.schedule()
    with inst.span("workloads.subscriptions"):
        subs = low_correlation_subscriptions(z["pool"], z["topics"], seed=seed)

    counts = inst.counts

    def timeline() -> VitisProtocol:
        p = VitisProtocol(
            subs, VitisConfig(), seed=seed,
            auto_start=False, election_every=1, relay_every=1,
        )

        def join(address: int) -> None:
            counts["sim.churn.joins"] += 1
            p.join(address)

        def leave(address: int) -> None:
            counts["sim.churn.leaves"] += 1
            p.leave(address)

        schedule.apply(p.engine, join, leave)
        p.run_cycles(z["warm_cycles"])
        return p

    timelines = [timeline() for _ in range(inst.reps)]
    inst.setup_done()

    for p in timelines:
        windows = []
        with inst.timed() as rep:
            ops = 0
            for w in range(z["windows"]):
                if w:
                    rep.checkpoint()
                for _ in range(z["window_cycles"]):
                    p.run_cycles(1)
                    ops += p.live_count()
                windows.append(
                    inst.measure(
                        p, z["events"], seed=seed + int(p.engine.now), min_join_age=10.0
                    )
                )
            rep.ops = ops
        col = windows[0]
        for w in windows[1:]:
            col.extend(w.records)
        inst.identical(
            "timeline",
            {
                "ops": ops,
                "live": p.live_count(),
                "summary": col.summary(),
                "messages": _total_messages(col),
            },
            col,
        )


# ----------------------------------------------------------------------
# deployed_run — the message-driven path on the simulated network
# ----------------------------------------------------------------------
def _deployed(inst) -> DeployedVitis:
    z, seed = inst.sizes, inst.seed
    with inst.span("workloads.subscriptions"):
        subs = bucket_subscriptions(
            z["nodes"], z["topics"], n_buckets=z["topics"] // 10,
            buckets_per_node=2, topics_per_bucket=5, seed=seed,
        )
    return DeployedVitis(
        subs,
        VitisConfig(rt_size=12),
        seed=seed,
        latency=UniformLatency(0.01, 0.15, random.Random(f"perf-latency-{seed}")),
    )


def deployed_run(inst) -> None:
    z, seed = inst.sizes, inst.seed
    d = _deployed(inst)
    simulated = 0
    while True:
        d.run(10)
        simulated += 10
        if simulated >= z["min_warm_s"] and (inst.ring_check(d) or simulated >= 120):
            break
    inst.setup_done()

    net = d.network
    for k in range(inst.reps):
        net.reset_traffic()
        with inst.timed() as rep:
            for step in range(z["window_s"] // 2):
                if step:
                    rep.checkpoint()
                d.run(2)
            rep.ops = sum(net.delivered.values())
        # A message to a live node that the network dropped.
        rep.failed = net.dropped.total()
        col = inst.measure(d, z["events"], seed=seed + 1 + k)
        inst.collector.extend(col.records)
        inst.output(
            f"window{k}",
            {
                "sent": sorted(net.sent.items()),
                "delivered": sorted(net.delivered.items()),
                "summary": col.summary(),
            },
        )
    inst.output("warm_s", simulated)
    inst.counts["deployed.sim_seconds"] = z["window_s"] * inst.reps
    inst.counts["deployed.nodes"] = z["nodes"]


# ----------------------------------------------------------------------
# udp_pair — the live transport between two loopback sockets
# ----------------------------------------------------------------------
#: Closed loop: at most this many messages sent and not yet delivered.
UDP_WINDOW = 16


def _udp_corpus(inst) -> List[M.Message]:
    """Real control traffic captured from a deployed-mode run, interleaved
    one-for-one with notifications plus 5 % SWIM probes, rewritten to
    alternate 0→1 / 1→0."""
    z, seed = inst.sizes, inst.seed
    d = _deployed(inst)
    d.run(z["warm_s"])
    captured: List[M.Message] = []
    send = d.network.send

    def capture(msg: M.Message) -> None:
        captured.append(msg)
        send(msg)

    d.network.send = capture  # instance-level, this throwaway system only
    d.run(z["capture_s"])
    del d.network.send

    rng = random.Random(f"perf-corpus-{seed}")
    mixed: List[M.Message] = []
    for i, msg in enumerate(captured[: z["control_msgs"]]):
        mixed.append(msg)
        mixed.append(
            M.Notification(
                src=0, dst=1, topic=rng.randrange(z["topics"]), event_id=i,
                hops=rng.randrange(8), publisher=rng.randrange(z["nodes"]),
            )
        )
        if rng.random() < 0.05:
            mixed.append(M.Probe(src=0, dst=1, target=1, incarnation=rng.randrange(4)))
            mixed.append(M.ProbeAck(src=0, dst=1, target=1, incarnation=rng.randrange(4)))
    return [
        dataclasses.replace(m, src=j % 2, dst=1 - j % 2) for j, m in enumerate(mixed)
    ]


async def _udp_pass(pair, msgs, window: int = UDP_WINDOW, idle_timeout: float = 5.0):
    """Send ``msgs`` closed-loop; returns the per-receiver delivery lists."""
    loop = asyncio.get_running_loop()
    received: List[List[M.Message]] = [[], []]
    state = {"next": 0, "delivered": 0}
    total = len(msgs)
    done = loop.create_future()

    def pump() -> None:
        while state["next"] < total and state["next"] - state["delivered"] < window:
            msg = msgs[state["next"]]
            state["next"] += 1
            pair[msg.src].send(msg)

    def receiver(bucket: List[M.Message]):
        def on_message(msg: M.Message) -> None:
            bucket.append(msg)
            state["delivered"] += 1
            if state["delivered"] >= total:
                if not done.done():
                    done.set_result(None)
            else:
                pump()

        return on_message

    pair[0].on_message = receiver(received[0])
    pair[1].on_message = receiver(received[1])
    pump()
    # A lost unreliable datagram narrows the window for good; if the loop
    # ever stalls, stop waiting and let verification count what is
    # missing as failed operations.
    while not done.done():
        before = state["delivered"]
        await asyncio.wait([done], timeout=idle_timeout)
        if state["delivered"] == before:
            break
    return received


def _udp_unmatched(expected: List[M.Message], got: List[M.Message]) -> int:
    """Messages of ``expected`` not delivered exactly once (decoded
    content compared), plus deliveries nobody sent."""
    if got == expected:
        return 0
    want: Dict[bytes, int] = {}
    for m in expected:
        key = wire.encode(m, 0)
        want[key] = want.get(key, 0) + 1
    extra = 0
    for m in got:
        key = wire.encode(m, 0)
        left = want.get(key, 0)
        if left:
            want[key] = left - 1
        else:
            extra += 1
    return sum(want.values()) + extra


async def _udp_instance(inst) -> None:
    z, seed = inst.sizes, inst.seed
    corpus = _udp_corpus(inst)
    expected = [[m for m in corpus if m.dst == i] for i in (0, 1)]
    sizes = [len(wire.encode(m, 1)) for m in corpus]
    reliable = sum(1 for m in corpus if m.kind not in UNRELIABLE_KINDS)

    pair = [
        await UdpTransport.create(i, random.Random(f"perf-udp-{seed}-{i}"))
        for i in (0, 1)
    ]
    try:
        pair[0].endpoints[1] = pair[1].local_addr
        pair[1].endpoints[0] = pair[0].local_addr

        async def settle() -> None:
            # Let the last acks land before anything blocks the loop, or
            # their retransmit timers fire against an idle wire.
            for t in pair:
                await t.drain(5.0)

        def totals() -> Dict[str, int]:
            return {
                f: sum(getattr(t, f) for t in pair)
                for f in ("retransmits", "duplicates", "gave_up")
            }

        await _udp_pass(pair, corpus[: z["warmup_msgs"]])
        await settle()
        inst.counts["net.transport.rtt_p50_us"] = await _udp_rtt(pair, corpus[:300])
        await settle()
        inst.setup_done()

        quarter = -(-len(corpus) // 4)
        bursts = [corpus[i : i + quarter] for i in range(0, len(corpus), quarter)]
        before = totals()
        unmatched = 0
        for _ in range(inst.reps):
            received: List[List[M.Message]] = [[], []]
            with inst.timed() as rep:
                for i, burst in enumerate(bursts):
                    if i:
                        rep.resume()
                    got = await _udp_pass(pair, burst)
                    rep.pause()
                    received[0] += got[0]
                    received[1] += got[1]
                    await settle()
                rep.ops = len(corpus)
            missing = sum(_udp_unmatched(expected[i], received[i]) for i in (0, 1))
            rep.failed = min(rep.ops, missing)
            unmatched += missing
            inst.identical("pass", {"messages": len(corpus), "unmatched": missing})
        after = totals()
    finally:
        for t in pair:
            t.close()

    wire_counts = {f: after[f] - before[f] for f in after}
    sent = len(corpus) * inst.reps
    control = reliable * inst.reps + wire_counts["duplicates"] + wire_counts["retransmits"]
    delivered = max(0, sent - unmatched)
    inst.quality = {
        "hit_ratio": delivered / sent,
        # Datagrams that carry no first transmission of a message (acks,
        # retransmissions), as a share of all datagrams on the wire.
        "overhead_pct": 100.0 * control / (sent + control),
        # Transmissions per delivered message: 1.0 on a clean wire.
        "delay_hops": (sent + wire_counts["retransmits"]) / max(1, delivered),
    }
    for f, n in wire_counts.items():
        inst.counts[f"net.transport.{f}"] = n
    inst.counts["net.wire.bytes_per_msg"] = sum(sizes) / len(sizes)
    inst.output("corpus", {"messages": len(corpus), "bytes": sum(sizes)})
    inst.output("gave_up", wire_counts["gave_up"])


async def _udp_rtt(pair, msgs) -> float:
    """Median one-message round trip (send → delivered) at window 1, µs."""
    samples = []
    for msg in msgs:
        t0 = perf_counter()
        await _udp_pass(pair, [msg], window=1)
        samples.append(perf_counter() - t0)
    samples.sort()
    return 1e6 * samples[len(samples) // 2]


def udp_pair(inst) -> None:
    asyncio.run(_udp_instance(inst))


# ----------------------------------------------------------------------
WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            "twitter_build", "node-cycle",
            twitter_build, instances=2, reps=1,
            full={"users": 8000, "sample": 350, "min_cycles": 30, "max_cycles": 120,
                  "events": 1000},
            quick={"users": 400, "sample": 40, "min_cycles": 30, "max_cycles": 120,
                   "events": 50},
        ),
        Workload(
            "publish_static", "event",
            publish_static, instances=2, reps=6,
            full={"nodes": 300, "topics": 1000, "events": 5000, "min_cycles": 50},
            quick={"nodes": 40, "topics": 100, "events": 200, "min_cycles": 30},
        ),
        Workload(
            "publish_faulty", "event",
            publish_faulty, instances=2, reps=3,
            full={"nodes": 300, "topics": 1000, "events": 5000, "min_cycles": 50},
            quick={"nodes": 40, "topics": 100, "events": 200, "min_cycles": 30},
        ),
        Workload(
            "churn_flash", "node-cycle",
            churn_flash, instances=3, reps=1,
            full={"pool": 300, "topics": 300, "horizon": 110, "flash_at": 45,
                  "warm_cycles": 30, "windows": 3, "window_cycles": 10, "events": 100},
            quick={"pool": 50, "topics": 50, "horizon": 60, "flash_at": 25,
                   "warm_cycles": 15, "windows": 2, "window_cycles": 8, "events": 20},
        ),
        Workload(
            "deployed_run", "message delivered",
            deployed_run, instances=2, reps=2,
            full={"nodes": 150, "topics": 150, "min_warm_s": 30, "window_s": 8, "events": 200},
            quick={"nodes": 30, "topics": 50, "min_warm_s": 10, "window_s": 2, "events": 20},
        ),
        Workload(
            "udp_pair", "message delivered exactly once",
            udp_pair, instances=2, reps=3,
            full={"nodes": 100, "topics": 150, "warm_s": 20, "capture_s": 4,
                  "control_msgs": 6000, "warmup_msgs": 2000},
            quick={"nodes": 30, "topics": 50, "warm_s": 6, "capture_s": 2,
                   "control_msgs": 600, "warmup_msgs": 200},
        ),
    )
}
