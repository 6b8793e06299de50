#!/usr/bin/env python3
"""The repo's performance benchmark: one command, six workloads.

    python benchmarks/perf/run.py [--workload NAME] [--seed S]
                                  [--seconds N] [--trace [0|1]] [--quick]

Each workload runs in its own child process (``PYTHONHASHSEED=0``, one
thread; ``udp_pair`` adds one asyncio loop with two loopback sockets).
The parent prints every metric by name with its unit, whether the
outputs were correct, and — as the last line of standard output — the
JSON object the benchmark contract asks for.  ``--trace 1`` prints the
per-layer metrics instead of the end-to-end ones and writes the spans to
``benchmarks/perf/out/trace_<workload>.json``.

Without ``--workload`` all six run in turn.  See ``README.md`` beside
this file for the metric catalogue and how to read a trace.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
SRC = ROOT / "src"
OUT = HERE / "out"

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOAD_NAMES = [w["name"] for w in SPEC["workloads"]]

#: Spans of one name written to the trace file per run; the per-layer
#: table always aggregates all of them.
TRACE_FILE_SPANS_PER_NAME = 2000


def parse_args(argv=None) -> argparse.Namespace:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOAD_NAMES, help="default: all six in turn")
    ap.add_argument("--seed", type=int, default=1, help="the only input to every generator")
    ap.add_argument(
        "--seconds", type=float, default=SPEC["run_seconds"],
        help="sizes the timed part: repetitions per instance scale with it",
    )
    ap.add_argument(
        "--trace", type=int, choices=(0, 1), nargs="?", const=1, default=0,
        help="1: wrap the layer boundaries and report the per-layer metrics",
    )
    ap.add_argument(
        "--quick", action="store_true",
        help="smoke sizes, each workload within about 2 s; numbers mean nothing",
    )
    ap.add_argument("--child", action="store_true", help=argparse.SUPPRESS)
    return ap.parse_args(argv)


# ----------------------------------------------------------------------
# Child: one workload in this process
# ----------------------------------------------------------------------
def child_main(args: argparse.Namespace) -> int:
    sys.path.insert(0, str(SRC))
    import harness  # noqa: E402  (needs SRC on the path)

    report = harness.run_workload(
        args.workload, args.seed, args.seconds, bool(args.trace), args.quick
    )
    spans = report.pop("spans")
    if args.trace:
        OUT.mkdir(exist_ok=True)
        kept, per_name = [], {}
        for span in spans:
            n = per_name[span[0]] = per_name.get(span[0], 0) + 1
            if n <= TRACE_FILE_SPANS_PER_NAME:
                kept.append(span)
        trace_file = OUT / f"trace_{args.workload}.json"
        trace_file.write_text(
            json.dumps(
                {
                    "workload": args.workload,
                    "seed": args.seed,
                    "fields": ["name", "start", "end", "parent", "repetition", "self_s"],
                    "spans_recorded": len(spans),
                    "spans_per_name_cap": TRACE_FILE_SPANS_PER_NAME,
                    "note": "parent is an index into the recorded spans, -1 for a root; "
                            "capped names keep their first spans only",
                    "spans": kept,
                    "per_layer": report["metrics"],
                    "timed_self_s": report["timed_self_s"],
                }
            )
        )
        report["trace_file"] = str(trace_file.relative_to(ROOT))
    json.dump(report, sys.stdout)
    return 0


# ----------------------------------------------------------------------
# Parent: spawn, print, account for the host
# ----------------------------------------------------------------------
def host_facts() -> dict:
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "load_1min": os.getloadavg()[0],
    }


def run_child(args: argparse.Namespace, workload: str) -> dict:
    env = dict(os.environ)
    env.update(
        PYTHONHASHSEED="0",
        PYTHONPATH=str(SRC),
        OMP_NUM_THREADS="1",
        OPENBLAS_NUM_THREADS="1",
        MKL_NUM_THREADS="1",
    )
    cmd = [
        sys.executable, str(HERE / "run.py"), "--child",
        "--workload", workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
    ]
    if args.quick:
        cmd.append("--quick")
    proc = subprocess.run(cmd, env=env, stdout=subprocess.PIPE, cwd=str(ROOT))
    if proc.returncode != 0:
        raise SystemExit(f"workload {workload} crashed (exit {proc.returncode})")
    return json.loads(proc.stdout)


def print_report(report: dict, host: dict) -> None:
    w = report["workload"]
    kind = "per-layer (traced run)" if report["trace"] else "end-to-end"
    print(f"== {w}  seed={report['seed']}  [{report['op']}]  {kind}"
          + ("  QUICK: sizes are smoke sizes" if report["quick"] else ""))
    for name, m in report["metrics"].items():
        print(f"  {name:<44} {m['value']:>16.6f} {m['unit']}")
    print(f"  ops attempted {report['attempted']}, failed {report['failed']}, "
          f"correct {report['correct']}")
    for problem in report["problems"]:
        print(f"  PROBLEM: {problem}")
    reps = ", ".join(
        "[" + " ".join(f"{s:.3f}" for s in inst) + "]" for inst in report["rep_seconds"]
    )
    print(f"  {report['instances']} set-ups "
          f"({' '.join(f'{s:.2f}' for s in report['setup_seconds'])} s), "
          f"repetition seconds {reps}")
    wall = report["wall"]
    print(f"  times above are scaled to the nominal host; this host ran at "
          f"{wall['host_speed']:.2f}x of it: wall setup_s {wall['setup_s']:.3f}, "
          f"wall ops_per_s {wall['ops_per_s']:.1f}")
    print(f"  sim_sha256 {report['sim_sha256']}")
    if "trace_file" in report:
        timed = {k: v for k, v in report["timed_self_s"].items()
                 if k not in ("bench.paused", "bench.host_slice")}
        wall = sum(timed.values())
        top = sorted(timed.items(), key=lambda kv: -kv[1])[:6]
        print("  self time inside the timed repetitions: "
              + ", ".join(f"{k} {100 * v / wall:.0f}%" for k, v in top)
              + "  (bench.repetition = unattributed)")
        print(f"  spans written to {report['trace_file']}")
    busy = max(host["load_start"], host["load_end"]) > host["nproc"]
    print(f"  host: nproc {host['nproc']}, {host['implementation']} {host['python']}, "
          f"1-min load {host['load_start']:.2f} -> {host['load_end']:.2f}"
          + ("  host_busy" if busy else ""))


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.child:
        return child_main(args)
    if not (SRC / "repro").is_dir():
        print(f"perf benchmark: no program to measure, {SRC / 'repro'} is missing",
              file=sys.stderr)
        return 2
    last = None
    for workload in [args.workload] if args.workload else WORKLOAD_NAMES:
        host = host_facts()
        report = run_child(args, workload)
        host = {**host, "load_start": host["load_1min"], "load_end": os.getloadavg()[0]}
        print_report(report, host)
        OUT.mkdir(exist_ok=True)
        (OUT / f"report_{workload}.json").write_text(json.dumps({**report, "host": host}))
        last = {k: report[k] for k in ("correct", "attempted", "failed", "metrics")}
        # The contract's result line; with several workloads, one each.
        print(json.dumps(last))
    return 0


if __name__ == "__main__":
    sys.exit(main())
