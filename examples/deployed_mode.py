"""Deployment mode: Vitis running entirely on messages with latency.

Run:  python examples/deployed_mode.py

The evaluation harness drives Vitis cycle-driven (like PeerSim's cdsim).
This example runs the message-driven deployment instead: every exchange
is a real network message subject to latency, every node runs on its own
phase-jittered timer (``repro.sim.engine.jittered_period`` — the same
draw the live UDP runtime uses), gateway proposals ride on profile messages, and
relay trees are maintained with TTLs and path repair — i.e. what a real
implementation does between the lines of the paper's pseudocode.

It reports (a) convergence under 10–150 ms message latency, (b) delivery
and overhead compared with the idealized cycle-driven run on the *same*
workload, and (c) the control-plane message budget per node per second.
"""

import random

from repro import VitisConfig, VitisProtocol
from repro.core.deployment import DeployedVitis
from repro.experiments.runner import measure
from repro.sim.network import UniformLatency
from repro.smallworld.ring import is_ring_converged
from repro.workloads import bucket_subscriptions


def main() -> None:
    subscriptions = bucket_subscriptions(
        120, 150, n_buckets=15, buckets_per_node=2, topics_per_bucket=5, seed=4
    )
    config = VitisConfig(rt_size=12)

    # ------------------------------------------------------------------
    # Message-driven system with WAN-ish latency.
    # ------------------------------------------------------------------
    deployed = DeployedVitis(
        subscriptions,
        config,
        seed=4,
        latency=UniformLatency(0.01, 0.15, random.Random(99)),
    )
    deployed.run(45)
    print("deployed mode after 45 simulated seconds:")
    print(f"  ring converged: "
          f"{is_ring_converged(deployed.ids_by_address(), deployed.successor_map())}")
    print(f"  messages exchanged: {sum(deployed.network.sent.values()):,} "
          f"({deployed.network.dropped.total()} dropped)")

    deployed.network.reset_traffic()
    deployed.run(10)
    per_node_per_s = sum(deployed.network.sent.values()) / 10 / deployed.live_count()
    by_kind = deployed.network.sent.most_common()
    print(f"  control traffic: {per_node_per_s:.1f} msgs/node/s, by kind:")
    for kind, count in by_kind:
        print(f"    {kind:<20} {count:>7}")

    col = measure(deployed, 200, seed=5)
    s = col.summary()
    print(f"  delivery: hit={s['hit_ratio']:.3f} "
          f"overhead={s['traffic_overhead_pct']:.1f}% "
          f"delay={s['mean_delay_hops']:.2f} hops")

    # ------------------------------------------------------------------
    # The idealized cycle-driven run on the same workload, for contrast.
    # ------------------------------------------------------------------
    cycle = VitisProtocol(subscriptions, config, seed=4,
                          election_every=0, relay_every=0)
    cycle.run_cycles(50)
    cycle.finalize()
    s2 = measure(cycle, 200, seed=5).summary()
    print()
    print("cycle-driven (idealized) on the same workload:")
    print(f"  delivery: hit={s2['hit_ratio']:.3f} "
          f"overhead={s2['traffic_overhead_pct']:.1f}% "
          f"delay={s2['mean_delay_hops']:.2f} hops")
    print()
    print("the gap between the two overhead numbers is the price of living")
    print("maintenance: TTL'd relay state, path repair and elections on")
    print("one-period-stale neighbor knowledge instead of snapshot rebuilds.")


if __name__ == "__main__":
    main()
