"""Command-line entry points: one sub-command tree.

::

    python -m repro list                    # the experiment commands
    python -m repro fig4 [--seed N] [--scale X] [--csv out.csv] ...
    python -m repro fault_sweep --loss-rate 0.05 --fault-seed 7
    python -m repro trace-report TRACE.jsonl [--audit] [--trees N]
    python -m repro live-report SERIES.json
    python -m repro live {node,cluster,status} ...

``python -m repro CMD --help`` is the flag reference.  Every command
declares exactly the flags it takes (:func:`build_parser`), so a flag on
a command that does not declare it is argparse's own usage error (exit
2), and values from outside are range-checked by the ``type=``
validators below, once, at the parser.

Each experiment command (``list`` prints them) builds that scenario's
sweep (:data:`repro.experiments.scenarios.SCENARIOS`) at its default
size multiplied by ``--scale``, runs it through the trial executor and
prints the row table, whose title carries the wall time.  What the
flags mean is documented where the feature is:

- ``--jobs``, ``--cache-dir`` — ``docs/experiments.md``;
- ``--trace-out``, ``--metrics-out``, ``--progress``, ``--log-level``,
  and the ``trace-report`` / ``live-report`` commands —
  ``docs/observability.md``.  With none of the four telemetry flags the
  no-op backend is used and the run is unaffected;
- the sweep axes of ``fault_sweep``, ``overload_sweep`` and
  ``chaos_sweep`` (:data:`AXIS_FLAGS`) — ``docs/robustness.md``;
- ``live …`` — :mod:`repro.net.cli` and ``docs/deployment.md``.
"""

from __future__ import annotations

import argparse
import inspect
import json
import logging
import sys
import time
from typing import Callable, Dict, List

from repro import obs
from repro.experiments import reporting
from repro.experiments.executor import (
    ParallelExecutor,
    ResultCache,
    SerialExecutor,
    run_sweep,
)
from repro.experiments.scenarios import SCENARIOS
from repro.sim.capacity import SHED_POLICIES

__all__ = ["build_parser", "main"]


# ----------------------------------------------------------------------
# ``type=`` validators: a bad value is argparse's one-line error, exit 2
# ----------------------------------------------------------------------
def _checked(convert: Callable, wanted: str, ok: Callable) -> Callable:
    def parse(text: str):
        try:
            value = convert(text)
        except ValueError:
            value = None
        if value is None or not ok(value):
            raise argparse.ArgumentTypeError(f"expected {wanted}, got {text!r}")
        return value

    return parse


def at_least(minimum: int) -> Callable[[str], int]:
    """An integer no smaller than ``minimum``."""
    return _checked(int, f"an integer >= {minimum}", lambda v: v >= minimum)


positive_float = _checked(float, "a number > 0", lambda v: v > 0)
probability = _checked(float, "a probability in [0, 1]", lambda v: 0 <= v <= 1)


# ----------------------------------------------------------------------
# Sweep axes
# ----------------------------------------------------------------------
#: ``spec kwarg → (flag, add_argument kwargs)``.  An experiment command
#: takes the flag when its sweep builder has a parameter of that name.
#: The kwarg is the argparse ``dest``, so a parsed value *is* the
#: override handed to :meth:`repro.experiments.spec.Scenario.sweep`.
AXIS_FLAGS: Dict[str, tuple] = {
    "loss_rates": ("--loss-rate", dict(
        action="append", type=probability, metavar="P",
        help="i.i.d. message-loss probability to sweep (repeatable)")),
    "partition_cycles": ("--partition", dict(
        action="append", type=int, metavar="CYCLES",
        help="half/half partition duration in cycles to sweep (repeatable)")),
    "fault_seed": ("--fault-seed", dict(
        type=int, metavar="N",
        help="seed for the injected faults (defaults to --seed; same value "
             "replays the exact same faults)")),
    "pub_rates": ("--pub-rate", dict(
        action="append", type=int, metavar="N",
        help="publication rate in events/cycle to sweep (repeatable)")),
    "capacities": ("--queue-capacity", dict(
        action="append", type=int, metavar="N",
        help="per-node inbox depth to sweep (repeatable; 0 = unbounded: "
             "the capacity layer is not attached at all)")),
    "policy": ("--shed-policy", dict(
        choices=SHED_POLICIES, metavar="NAME",
        help=f"shedding policy ({', '.join(SHED_POLICIES)})")),
    "detectors": ("--detector", dict(
        action="append", choices=("swim", "heartbeat"), metavar="NAME",
        help="liveness source to compare (repeatable; swim, heartbeat)")),
    "suspicion_base": ("--suspicion-timeout", dict(
        type=float, metavar="F",
        help="SWIM suspicion timeout as a multiple of log2(N) cycles "
             "(default 0.5)")),
    "probe_fanout": ("--probe-fanout", dict(
        type=int, metavar="K",
        help="indirect-probe proxies asked per missed direct probe "
             "(default 3)")),
}


def _scenario_flags() -> argparse.ArgumentParser:
    """The flags every experiment command shares (an argparse parent)."""
    shared = argparse.ArgumentParser(add_help=False)
    shared.add_argument("--seed", type=int, default=0, help="experiment seed")
    shared.add_argument(
        "--scale", type=positive_float, default=1.0,
        help="population multiplier over the bench defaults",
    )
    shared.add_argument("--csv", help="also write raw rows to this CSV file")
    shared.add_argument(
        "--jobs", type=at_least(1), default=1, metavar="N",
        help="run trials in N worker processes (output is identical to a "
             "serial run)",
    )
    shared.add_argument(
        "--cache-dir", metavar="DIR",
        help="load current cached trial results from DIR instead of "
             "re-running them, and persist every trial computed there",
    )
    shared.add_argument(
        "--trace-out", metavar="FILE.jsonl",
        help="write a structured JSONL protocol-event trace",
    )
    shared.add_argument(
        "--metrics-out", metavar="FILE.json",
        help="write the metrics registry + phase breakdown as JSON",
    )
    shared.add_argument(
        "--progress", action="store_true",
        help="print a periodic one-line status to stderr",
    )
    shared.add_argument(
        "--log-level", metavar="LEVEL",
        help="stdlib logging threshold (e.g. DEBUG, INFO)",
    )
    return shared


def build_parser() -> argparse.ArgumentParser:
    """The whole command tree.  Each leaf parser sets ``run`` (its
    handler, called with the parsed namespace) and ``usage_error`` (its
    own ``error``, so a handler's complaint prints that command's usage).
    """
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reproduce the Vitis (IPDPS 2011) evaluation figures.",
    )
    commands = parser.add_subparsers(
        dest="command", metavar="COMMAND", required=True
    )

    def command(name: str, run: Callable, **kwargs) -> argparse.ArgumentParser:
        sub = commands.add_parser(name, **kwargs)
        sub.set_defaults(run=run, usage_error=sub.error)
        return sub

    command("list", _list, help="print the experiment commands")

    shared = _scenario_flags()
    for name in sorted(SCENARIOS):
        sub = command(name, _run_scenario, parents=[shared],
                      help=f"run the {name} sweep and print its rows")
        params = inspect.signature(SCENARIOS[name].spec).parameters
        for kwarg, (flag, kwargs) in AXIS_FLAGS.items():
            if kwarg in params:
                sub.add_argument(flag, dest=kwarg, default=argparse.SUPPRESS,
                                 **kwargs)

    sub = command(
        "trace-report", _trace_report,
        help="delivery audit and critical-path report of a --trace-out file",
    )
    sub.add_argument("target", metavar="TRACE.jsonl",
                     help="the JSONL trace file to analyse")
    sub.add_argument(
        "--audit", action="store_true",
        help="exit non-zero on unexplained misses, incomplete span trees, "
             "or a violated O(log² N + d) envelope",
    )
    sub.add_argument("--trees", type=int, default=0, metavar="N",
                     help="render the first N event span trees")
    sub.add_argument("--hotspots", type=int, default=10, metavar="N",
                     help="show the N heaviest relay nodes")

    sub = command(
        "live-report", _live_report,
        help="health timeline of a live cluster --series-out file",
    )
    sub.add_argument("target", metavar="SERIES.json",
                     help="the live series JSON to render")

    # Imported here because repro.net.cli takes its validators from this
    # module.
    from repro.net.cli import add_live_commands

    add_live_commands(commands)
    # main() answers an unregistered command in one line instead of
    # argparse's dump of every choice.
    parser.set_defaults(commands=tuple(commands.choices))
    return parser


def main(argv: List[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    parser = build_parser()
    if (argv and not argv[0].startswith("-")
            and argv[0] not in parser.get_default("commands")):
        print(f"unknown command {argv[0]!r}; try 'list'", file=sys.stderr)
        return 2
    args = parser.parse_args(argv)
    return args.run(args)


def _list(args) -> int:
    print("available experiments:")
    for name in sorted(SCENARIOS):
        print(f"  {name}")
    return 0


def _run_scenario(args) -> int:
    """Build the command's sweep, run it, print (and optionally save)
    the rows."""
    if args.log_level:
        level = getattr(logging, args.log_level.upper(), None)
        if not isinstance(level, int):
            args.usage_error(f"invalid --log-level {args.log_level!r} "
                             "(use DEBUG, INFO, WARNING, ERROR or CRITICAL)")
        logging.basicConfig(
            level=level,
            format="%(levelname)s %(name)s: %(message)s",
        )
    try:
        telemetry = _make_telemetry(args)
    except OSError as exc:
        # Fail before the run, not after it: the trace file opens eagerly.
        args.usage_error(f"cannot open --trace-out: {exc}")

    # An axis flag that was not given is absent from the namespace
    # (default=SUPPRESS), so the spec's own default stands.
    overrides = {
        kwarg: tuple(value) if isinstance(value, list) else value
        for kwarg, value in vars(args).items()
        if kwarg in AXIS_FLAGS
    }
    if "detectors" in overrides:
        # A detector named twice is still compared once.
        overrides["detectors"] = tuple(dict.fromkeys(overrides["detectors"]))

    sweep = SCENARIOS[args.command].sweep(
        seed=args.seed, scale=args.scale, **overrides
    )
    executor = ParallelExecutor(args.jobs) if args.jobs > 1 else SerialExecutor()
    cache = ResultCache(args.cache_dir) if args.cache_dir else None

    t0 = time.time()
    with obs.scope(telemetry), telemetry.phase(args.command):
        rows = run_sweep(sweep, executor=executor, cache=cache)
    elapsed = time.time() - t0
    print(reporting.format_table(rows, title=f"{args.command} ({elapsed:.1f}s)"))
    # Same seed and scale, same line: the value tools/contract.py pins.
    print(f"{len(rows)} rows, rows_sha256 {reporting.rows_fingerprint(rows)}")
    if args.csv:
        _write_csv(args.csv, rows)
    _finish_telemetry(telemetry, args)
    return 0


def _trace_report(args) -> int:
    """``python -m repro trace-report TRACE.jsonl [--audit] [--trees N]``.

    Reconstructs the span trees of a causal trace (a ``--trace-out``
    file) and prints the delivery audit, miss attribution, per-hop-kind
    depth table, relay hotspots and the O(log² N + d) envelope check.
    With ``--audit`` the exit status enforces the audit contract.
    """
    from repro.obs.report import trace_report

    try:
        events = obs.read_trace(args.target)
    except OSError as exc:
        print(f"cannot read {args.target}: {exc}", file=sys.stderr)
        return 2
    if not events:
        print(f"{args.target}: trace file is empty (no events to report)",
              file=sys.stderr)
        return 2
    text, audit, env = trace_report(
        events, n_trees=args.trees, n_hotspots=args.hotspots
    )
    print(text)
    if args.audit:
        failed = []
        if not audit.ok:
            failed.append(
                f"{audit.unexplained_total} unexplained miss(es), "
                f"{audit.n_incomplete} incomplete tree(s)"
            )
        if env is not None and not env.ok:
            failed.append(
                f"p99 delivery depth {env.p99_hops:.0f} exceeds the "
                f"O(log² N + d) bound {env.bound:.1f}"
            )
        if failed:
            print("audit: FAILED — " + "; ".join(failed), file=sys.stderr)
            return 1
        print("audit: OK", file=sys.stderr)
    return 0


def _live_report(args) -> int:
    """``python -m repro live-report SERIES.json``.

    Renders the live metrics series a cluster run persisted with
    ``live cluster --metrics-interval I --series-out SERIES.json`` as a
    health timeline: the complete SWIM verdict-transition log,
    retransmit/give-up/delivery evolution, the delivery-hops
    distribution, and ring-convergence progress.
    """
    from repro.obs.report import live_report

    try:
        with open(args.target, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as exc:
        print(f"cannot read {args.target}: {exc}", file=sys.stderr)
        return 2
    except json.JSONDecodeError as exc:
        print(f"{args.target}: not valid JSON: {exc}", file=sys.stderr)
        return 2
    try:
        print(live_report(doc))
    except ValueError as exc:
        print(f"{args.target}: {exc}", file=sys.stderr)
        return 2
    return 0


def _make_telemetry(args) -> obs.Telemetry:
    """A real telemetry object when any observability flag is set; the
    no-op backend otherwise (zero-cost path)."""
    if not (args.trace_out or args.metrics_out or args.progress):
        return obs.NULL
    return obs.Telemetry(trace=args.trace_out, progress=args.progress)


def _finish_telemetry(telemetry: obs.Telemetry, args) -> None:
    """Flush trace/metrics outputs and print the phase breakdown."""
    telemetry.close()
    if not telemetry.enabled:
        return
    if args.metrics_out:
        with open(args.metrics_out, "w", encoding="utf-8") as fh:
            json.dump(telemetry.metrics_dump(), fh, indent=2, default=str)
        print(f"wrote metrics to {args.metrics_out}", file=sys.stderr)
    if args.trace_out:
        print(
            f"wrote {telemetry.trace.events_written} trace events to {args.trace_out}",
            file=sys.stderr,
        )
    from repro.obs.report import phase_rows

    p_rows = phase_rows(telemetry)
    if p_rows:
        print(reporting.format_table(p_rows, title="phase breakdown"), file=sys.stderr)


def _write_csv(path: str, rows: List[Dict]) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(reporting.rows_to_csv(rows))
    print(f"wrote {len(rows)} rows to {path}")


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
