#!/usr/bin/env python3
"""Alternating parent/change pairs of contract-benchmark workloads.

    python tools/perf_pairs.py --parent <git-ref|dir> --workload W[,W2,...] --seeds A..B
                               [--quick] [--sha-may-differ] [--layers a,b,...]

Extracts ``<git-ref>`` (``git archive``) into a temporary directory, or
copies ``<dir>`` there when the parent is an existing directory (no git
checkout needed), and,
for every named workload in turn (one block each) and every seed, runs
the *unchanged* ``benchmarks/perf/run.py --workload W --seed N`` there
and in this checkout (uncommitted edits included), alternating which
side goes first.  Within a pair ``sim_sha256``, ``hit_ratio``,
``useful_msgs_pct`` and ``delay_hops`` must be equal and neither side
may fail more operations than the other — otherwise the exit code is 1.
``--sha-may-differ`` is for a change that moves a fingerprint on purpose
(a wire-format bump changes the byte counts ``udp_pair`` hashes): the
two ``sim_sha256`` are then printed as a note, everything else stays
must-match.  Prints one row per pair, then for ``ops_per_s``,
``setup_s`` and ``peak_rss_mb`` each side's median and quartiles, the
win count and whether the pairs support a gain, plus how often whichever
side ran first won on ``ops_per_s`` (an order effect reads far from
half).  A gain is judged by the rule of the ``choosing-metrics`` guide,
section 8: at least ten pairs, the change wins nine tenths of them, and
the medians differ by more than the distance between the parent's
quartiles.

``--layers`` names per-layer spans (``core.gateway.election_round``,
``smallworld.lookup``, …).  After a workload's pairs, each side runs
twice more at the first seed with ``--trace 1``, alternating, and every
named layer's ``self_s`` is printed per run *scaled to the nominal host*
(``self_s × bench.host_speed``): raw ``self_s`` from two traced runs is
not comparable on a host whose speed drifts between them.  A named layer's
``.calls`` (and ``.hops_mean``, where it has one) must be equal in all
four runs — a layer that got cheaper by doing different work is a
mismatch, exit code 1.
"""

from __future__ import annotations

import argparse
import json
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
MUST_MATCH = ("hit_ratio", "useful_msgs_pct", "delay_hops")
#: Reported metric -> +1 when higher is better, -1 when lower is.
REPORTED = {"ops_per_s": 1, "setup_s": -1, "peak_rss_mb": -1}


def run_once(tree: Path, workload: str, seed: int, quick: bool, trace: bool = False) -> dict:
    """One run's metrics by name: end-to-end, or per-layer with ``trace``."""
    cmd = [sys.executable, str(tree / "benchmarks" / "perf" / "run.py"),
           "--workload", workload, "--seed", str(seed)]
    if quick:
        cmd.append("--quick")
    if trace:
        cmd += ["--trace", "1"]
    lines = subprocess.run(
        cmd, cwd=tree, check=True, stdout=subprocess.PIPE, text=True
    ).stdout.splitlines()
    result = json.loads(lines[-1])
    row = {name: m["value"] for name, m in result["metrics"].items()}
    row["failed"] = result["failed"]
    row["sim_sha256"] = next(
        line.split()[1] for line in lines if line.strip().startswith("sim_sha256")
    )
    return row


def quartiles(values) -> tuple:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def traced_layers(sides: dict, workload: str, seed: int, quick: bool, layers: list) -> list:
    """Two traced runs a side, alternating; prints the named layers'
    host-scaled self time and returns the counts that differ."""
    runs = {"parent": [], "change": []}
    for order in (("parent", "change"), ("change", "parent")):
        for side in order:
            runs[side].append(run_once(sides[side], workload, seed, quick, trace=True))
    speeds = {side: [r["bench.host_speed"] for r in rows] for side, rows in runs.items()}
    print(f"traced, seed {seed}, two runs a side; host speed "
          + ", ".join(f"{side} {a:.2f} / {b:.2f}" for side, (a, b) in speeds.items()))
    mismatches = []
    for layer in layers:
        scaled = {
            side: [r[f"{layer}.self_s"] * r["bench.host_speed"] for r in rows]
            for side, rows in runs.items()
        }
        print(f"{layer}.self_s x host_speed: "
              + ", ".join(f"{side} {a:.3f} / {b:.3f}" for side, (a, b) in scaled.items()))
        for count in (f"{layer}.calls", f"{layer}.hops_mean"):
            if count in runs["parent"][0]:
                values = {r[count] for rows in runs.values() for r in rows}
                print(f"{count}: {runs['parent'][0][count]:.10g}")
                if len(values) > 1:
                    mismatches.append(f"seed {seed}: {count} differs across traced runs: "
                                      + " ".join(f"{v:.10g}" for v in sorted(values)))
    return mismatches


def run_pairs(sides: dict, workload: str, seeds: range, args) -> list:
    """One workload's block: a row per pair, the summary, the traced
    layers if asked for.  Returns its mismatches (notes are printed)."""
    pairs, mismatches, notes, first_won = [], [], [], 0
    print(f"== {workload}")
    print(f"{'seed':>5} {'first':>6} {'parent ops/s':>13} {'change ops/s':>13} "
          f"{'change/parent':>13}")
    for k, seed in enumerate(seeds):
        order = ("parent", "change") if k % 2 == 0 else ("change", "parent")
        pair = {s: run_once(sides[s], workload, seed, args.quick) for s in order}
        p, c = pair["parent"], pair["change"]
        for name in ("sim_sha256", *MUST_MATCH, "failed"):
            if p[name] != c[name]:
                expected = name == "sim_sha256" and args.sha_may_differ
                (notes if expected else mismatches).append(
                    f"{workload} seed {seed}: {name} {p[name]} != {c[name]}"
                )
        pairs.append((p, c))
        first_won += pair[order[0]]["ops_per_s"] > pair[order[1]]["ops_per_s"]
        print(f"{seed:>5} {order[0]:>6} {p['ops_per_s']:>13.1f} {c['ops_per_s']:>13.1f} "
              f"{c['ops_per_s'] / p['ops_per_s']:>13.3f}", flush=True)
    if args.layers:
        mismatches += traced_layers(
            sides, workload, seeds[0], args.quick, args.layers.split(",")
        )

    quart = {}
    for name in REPORTED:
        qp, qc = quart[name] = [quartiles([pair[i][name] for pair in pairs]) for i in (0, 1)]
        print(f"{name}: parent median {qp[1]:.4g} (quartiles {qp[0]:.4g}-{qp[2]:.4g}), "
              f"change median {qc[1]:.4g} (quartiles {qc[0]:.4g}-{qc[2]:.4g}), "
              f"{100 * (qc[1] / qp[1] - 1):+.1f} %")
    for name, sign in REPORTED.items():
        wins = sum(sign * (c[name] - p[name]) > 0 for p, c in pairs)
        losses = sum(sign * (c[name] - p[name]) < 0 for p, c in pairs)
        (q1, med_p, q3), (_, med_c, _) = quart[name]
        gain = len(pairs) >= 10 and wins >= 0.9 * len(pairs) and sign * (med_c - med_p) > q3 - q1
        # An order effect shows as the first runner winning far from half the
        # pairs whichever side it is; alternation keeps it out of the win count.
        extra = f", first-runner wins {first_won}/{len(pairs)}" if name == "ops_per_s" else ""
        print(f"{name}: change wins {wins}/{len(pairs)}, loses {losses}{extra}; "
              f"pairs {'support' if gain else 'do not support'} a gain")
    for line in notes:
        print(f"note (--sha-may-differ) {line}")
    return mismatches


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--parent", required=True,
                    help="git ref of the parent commit, or a directory holding its tree")
    ap.add_argument("--workload", required=True,
                    help="one workload, or several comma-separated: one block each, in turn")
    ap.add_argument("--seeds", required=True, help="inclusive range A..B")
    ap.add_argument("--quick", action="store_true", help="smoke sizes (CI); numbers mean nothing")
    ap.add_argument("--sha-may-differ", action="store_true",
                    help="report a sim_sha256 difference as a note, not a mismatch")
    ap.add_argument("--layers", default="",
                    help="comma-separated span names: host-scaled self_s from traced runs")
    args = ap.parse_args(argv)
    first, last = (int(s) for s in args.seeds.split(".."))

    sides = {"change": ROOT}
    mismatches = []
    with tempfile.TemporaryDirectory(prefix="perf_pairs_") as tmp:
        sides["parent"] = Path(tmp) / "parent"
        if Path(args.parent).is_dir():
            shutil.copytree(args.parent, sides["parent"],
                            ignore=shutil.ignore_patterns(".git", "__pycache__"))
        else:
            sides["parent"].mkdir()
            archive = subprocess.run(
                ["git", "archive", args.parent], cwd=ROOT, check=True, stdout=subprocess.PIPE
            ).stdout
            subprocess.run(["tar", "-x", "-C", str(sides["parent"])], input=archive, check=True)
        for workload in args.workload.split(","):
            mismatches += run_pairs(sides, workload, range(first, last + 1), args)
    for line in mismatches:
        print(f"MISMATCH {line}", file=sys.stderr)
    return 1 if mismatches else 0


if __name__ == "__main__":
    sys.exit(main())
