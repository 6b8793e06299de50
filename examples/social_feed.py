"""Social feed: a Twitter-like workload across all three systems.

Run:  python examples/social_feed.py

This is the scenario that motivates the paper's design: every user is
both a node and a topic (followers = subscribers), subscription counts
are power-law distributed, and users publish on their own topic.  The
example builds Vitis and both baselines over the same synthetic follower
graph and prints the comparison of paper Fig. 10 at example scale:

- OPT (overlay-per-topic) has zero overhead but, with a bounded degree,
  misses subscribers;
- RVR (Scribe-like) always delivers but burns relay traffic;
- Vitis delivers everything with a fraction of RVR's overhead.

Then users follow and unfollow at runtime (paper section III-D): Vitis
re-clusters around the new follower graph with no restart.
"""

import random

from repro import VitisConfig
from repro.experiments.runner import build_opt, build_rvr, build_vitis, measure
from repro.workloads import TwitterTrace


def main() -> None:
    # A 4000-user synthetic follower graph matching the trace statistics
    # the paper reports (power-law in/out degree, α≈1.65), sampled down
    # to 400 users with the paper's BFS procedure.
    trace = TwitterTrace(n_users=4000, min_out=3, seed=7)
    sample = trace.bfs_sample(400, seed=7)
    subscriptions = sample.subscriptions()

    stats = sample.summary()
    print("synthetic follower graph sample:")
    print(f"  users={int(stats['users'])}  follow-relations={int(stats['relations'])}")
    print(f"  mean subscriptions/user={stats['mean_out_degree']:.1f}  "
          f"power-law fit: α_in={stats['alpha_in']:.2f}")
    print()

    config = VitisConfig(rt_size=15)
    events = 300

    systems = {
        "vitis": build_vitis(subscriptions, config, seed=7),
        "rvr": build_rvr(subscriptions, config, seed=7),
        "opt (bounded)": build_opt(subscriptions, config, seed=7, max_degree=15),
    }

    print(f"{'system':<15} {'hit ratio':>10} {'overhead %':>11} {'delay (hops)':>13}")
    for name, proto in systems.items():
        # Publishers are topic owners: user u tweets on topic u.
        col = measure(proto, events, seed=8, publisher="owner")
        s = col.summary()
        print(f"{name:<15} {s['hit_ratio']:>10.3f} "
              f"{s['traffic_overhead_pct']:>11.2f} {s['mean_delay_hops']:>13.2f}")

    # What would OPT need to deliver everything?  Unbounded degree.
    unbounded = build_opt(subscriptions, config, seed=7, max_degree=None)
    col = measure(unbounded, events, seed=8, publisher="owner")
    degrees = unbounded.degree_distribution()
    over_15 = sum(1 for d in degrees if d > 15) / len(degrees)
    print()
    print(f"opt (unbounded): hit ratio {col.hit_ratio():.3f}, but "
          f"{over_15:.0%} of nodes need degree > 15 (max {max(degrees)}) — "
          f"the Fig. 11 scalability argument.")

    # Interest churn: 40 users each unfollow one account and follow
    # another.  The next gossip rounds' friend selection captures the
    # change; elections and relay paths follow it.
    vitis = systems["vitis"]
    rng = random.Random(9)
    users = vitis.live_addresses()
    for user in rng.sample(users, 40):
        vitis.unsubscribe(user, rng.choice(sorted(vitis.nodes[user].profile.subscriptions)))
        vitis.subscribe(user, rng.choice(users))
    vitis.run_cycles(20)
    vitis.finalize()
    col = measure(vitis, events, seed=10, publisher="owner")
    print(f"vitis after 40 users changed whom they follow: hit ratio "
          f"{col.hit_ratio():.3f}, overhead {col.traffic_overhead_pct():.2f}%")


if __name__ == "__main__":
    main()
