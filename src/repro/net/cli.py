"""``python -m repro live ...`` — the real-network deployment commands.

:func:`add_live_commands` registers two subcommands on the command
tree of :func:`repro.cli.build_parser`:

``live node``
    One overlay member: joins via the seed service, gossips over UDP,
    streams its observability JSONL to the collector (plus periodic
    ``metrics_delta`` frames when ``--metrics-interval`` is set), and
    obeys driver commands (publish/topo/shutdown) pushed over the seed
    connection.  Normally spawned by ``live cluster``, but runnable by
    hand against a standing seed for ad-hoc experiments.

``live cluster``
    The launcher/driver: hosts the seed + collector, spawns ``--procs``
    node subprocesses on loopback, waits for ring convergence, drives a
    fig4-style measurement, audits the merged trace (zero unexplained
    misses is a hard gate), and bands the live hit ratio against an
    in-sim run of the identical workload.  With ``--metrics-interval``
    the collector also folds the streamed per-node metrics into its
    series store, and ``--series-out`` persists that store for
    ``python -m repro live-report``.  Exit code 0 only when every gate
    passes.
"""

from __future__ import annotations

import argparse

from repro.cli import at_least, positive_float, probability

__all__ = ["add_live_commands"]


def _add_workload_args(parser: argparse.ArgumentParser, with_n_nodes: bool) -> None:
    if with_n_nodes:
        parser.add_argument("--n-nodes", type=int, required=True,
                            help="overlay size (must match the whole cluster)")
    parser.add_argument("--n-topics", type=int, default=60)
    parser.add_argument("--n-buckets", type=int, default=12)
    parser.add_argument("--buckets-per-node", type=int, default=4)
    parser.add_argument("--topics-per-bucket", type=int, default=3)
    parser.add_argument("--workload-seed", type=int, default=0)


def _add_shared_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--bind-host", default="127.0.0.1",
                        help="host to bind UDP/TCP endpoints on")
    parser.add_argument("--loss-rate", type=probability, default=0.0,
                        help="injected receiver-side UDP loss probability")
    parser.add_argument("--gossip-period", type=positive_float, default=0.25,
                        help="seconds per gossip round (real time)")
    parser.add_argument("--join-timeout", type=float, default=30.0,
                        help="seconds to wait for the bootstrap handshake")
    parser.add_argument("--metrics-interval", type=float, default=0.0,
                        help="seconds between streamed metrics snapshot "
                             "frames (0 disables streaming)")


def add_live_commands(commands) -> None:
    """Register ``live {node,cluster}`` under ``commands``, the
    sub-parsers action of the top-level parser."""
    live = commands.add_parser(
        "live", help="run the overlay over real UDP sockets",
        description="Run the overlay over real UDP sockets.",
    )
    sub = live.add_subparsers(
        dest="live_command", metavar="SUBCOMMAND", required=True
    )

    node = sub.add_parser("node", help="run one overlay member process")
    node.set_defaults(run=_run_node)
    node.add_argument("--seed-host", required=True)
    node.add_argument("--seed-port", type=int, required=True)
    node.add_argument("--collector-host", required=True)
    node.add_argument("--collector-port", type=int, required=True)
    _add_shared_args(node)
    _add_workload_args(node, with_n_nodes=True)

    cluster = sub.add_parser(
        "cluster", help="launch a local multi-process cluster and measure it"
    )
    cluster.set_defaults(run=_run_cluster)
    # One process has no peer to deliver to: every gate would pass on
    # zero expected deliveries.
    cluster.add_argument("--procs", type=at_least(2), default=50,
                         help="number of node subprocesses")
    cluster.add_argument("--events", type=int, default=40,
                         help="events to publish in the measurement")
    cluster.add_argument("--pub-seed", type=int, default=1,
                         help="numpy seed for the event stream "
                              "(same draws as the in-sim measure())")
    cluster.add_argument("--event-gap", type=float, default=0.05,
                         help="seconds between commanded publishes")
    cluster.add_argument("--converge-timeout", type=float, default=90.0,
                         help="seconds to wait for ring convergence")
    cluster.add_argument("--settle", type=float, default=4.0,
                         help="seconds after the last publish before shutdown "
                              "(covers the full retransmit backoff tail)")
    cluster.add_argument("--shutdown-timeout", type=float, default=15.0,
                         help="per-process clean-exit deadline")
    cluster.add_argument("--trace-out", default=None,
                         help="merged trace path "
                              "(default live_cluster_trace.jsonl)")
    cluster.add_argument("--hit-band", type=float, default=0.15,
                         help="allowed live hit-ratio shortfall vs in-sim")
    cluster.add_argument("--no-predict", dest="predict", action="store_false",
                         help="skip the in-sim prediction band")
    cluster.add_argument("--verbose", action="store_true",
                         help="inherit subprocess stdout/stderr")
    cluster.add_argument("--series-out", default=None,
                         help="persist the live metrics series store "
                              "(JSON) for `python -m repro live-report`")
    _add_shared_args(cluster)
    _add_workload_args(cluster, with_n_nodes=False)


# The handlers import what they run: every other command shares this
# parser and should not pay for asyncio and the live runtime.
def _run_node(ns) -> int:
    import asyncio

    from repro.net.node import run_node
    return asyncio.run(run_node(ns))


def _run_cluster(ns) -> int:
    # The workload's n_nodes is the process count.
    ns.n_nodes = ns.procs
    import asyncio

    from repro.net.cluster import run_cluster
    result = asyncio.run(run_cluster(ns))
    for line in result.summary_lines():
        print(line)
    return 0 if result.ok else 1
