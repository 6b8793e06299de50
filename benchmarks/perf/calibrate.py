#!/usr/bin/env python3
"""Measure how steady the benchmark is on this host.

    python benchmarks/perf/calibrate.py [--runs 10] [--seed 1] [--write]

Makes ``--runs`` full runs of every workload, each with another seed
(``--seed``, ``--seed + 1``, …; ``--fixed-seed`` repeats one seed, which
leaves host noise alone), in alternating order so slow drift of the host
does not line up with one workload.  For every (workload,
end-to-end metric) pair it prints the median, the quartiles as
``statistics.quantiles(values, n=4)`` gives them, their distance as a
share of the median (the spread the benchmark contract bounds) and the
gap between the medians of the first and the second half of the runs.
``--write`` commits the table to ``CALIBRATION.md`` beside this file.

A spread above a third of the metric's bound is flagged: fix it by
measuring more (instances, repetitions, events), not by widening the
bound.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent


def result_line(stdout: str) -> dict:
    return json.loads(stdout.strip().splitlines()[-1])


def spread(values) -> tuple:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3, (q3 - q1) / med if med else float("inf")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--seed", type=int, default=1, help="seed of the first run")
    ap.add_argument("--workload", action="append", help="only these (repeatable)")
    ap.add_argument("--write", action="store_true", help="write CALIBRATION.md")
    ap.add_argument(
        "--fixed-seed", action="store_true",
        help="every run uses --seed: the spread is then host noise alone",
    )
    args = ap.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    better = {m["name"]: m["better"] for m in spec["end_to_end"]}
    workloads = args.workload or [w["name"] for w in spec["workloads"]]
    seconds = spec["run_seconds"]

    # Unscaled wall figures and the host speed, from the run's report file:
    # shown beside the scaled metrics so the table says what scaling buys.
    wall_names = ("setup_s", "ops_per_s", "host_speed")
    values = {w: {m: [] for m in (*bounds, *(f"wall {n}" for n in wall_names))}
              for w in workloads}
    wall = {w: [] for w in workloads}
    incorrect = []
    load_start = os.getloadavg()[0]
    for i in range(args.runs):
        order = workloads if i % 2 == 0 else workloads[::-1]
        for w in order:
            cmd = spec["command"] + [
                "--workload", w, "--seed", str(args.seed if args.fixed_seed else args.seed + i),
                "--seconds", str(seconds), "--trace", "0",
            ]
            t0 = time.perf_counter()
            proc = subprocess.run(cmd, cwd=str(ROOT), stdout=subprocess.PIPE, text=True)
            wall[w].append(time.perf_counter() - t0)
            if proc.returncode != 0:
                print(f"run {i} of {w} exited {proc.returncode}", file=sys.stderr)
                return 1
            res = result_line(proc.stdout)
            if not res["correct"] or res["failed"]:
                incorrect.append(f"{w} seed {args.seed + i}: failed {res['failed']}")
            for m in bounds:
                values[w][m].append(res["metrics"][m]["value"])
            report = json.loads((HERE / "out" / f"report_{w}.json").read_text())
            for n in wall_names:
                values[w][f"wall {n}"].append(report["wall"][n])
            print(f"run {i + 1}/{args.runs} {w:<15} {wall[w][-1]:6.1f} s", file=sys.stderr)

    half = args.runs // 2
    lines = [
        "| workload | metric | median | q1 | q3 | spread (q3-q1)/median | bound | "
        "2nd-half vs 1st-half median |",
        "|---|---|---|---|---|---|---|---|",
    ]
    flagged = []
    for w in workloads:
        for m, v in values[w].items():
            bound = bounds.get(m, "")
            q1, med, q3, rel = spread(v)
            a, b = statistics.median(v[:half]), statistics.median(v[half:])
            lower = better.get(m, "higher" if m != "wall setup_s" else "lower") == "lower"
            worse = (b - a) / a if lower else (a - b) / a
            flag = ""
            if m in bounds and m != "setup_s" and rel > bound / 3:
                flag = " (!)"
                flagged.append(f"{w}.{m}: spread {rel:.3f} > bound/3 = {bound / 3:.3f}")
            lines.append(
                f"| {w} | {m} | {med:.6g} | {q1:.6g} | {q3:.6g} | {rel:.4f}{flag} | "
                f"{bound} | {worse:+.4f} |"
            )
    walls = ", ".join(f"{w} {statistics.median(wall[w]):.1f}" for w in workloads)
    total = sum(statistics.median(wall[w]) for w in workloads)
    header = [
        "# Calibration of the perf benchmark",
        "",
        f"`python benchmarks/perf/calibrate.py --runs {args.runs} --seed {args.seed} --write` "
        f"on {platform.python_implementation()} {platform.python_version()}, "
        f"{os.cpu_count()} CPUs, 1-min load {load_start:.2f} at start and "
        f"{os.getloadavg()[0]:.2f} at end.",
        "",
        f"{args.runs} runs per workload, "
        + (f"all with seed {args.seed}" if args.fixed_seed
           else f"run *i* with seed {args.seed} + *i*")
        + ", workload order reversed on every other round.  Spread is the distance "
        "between the first and third quartile as a share of the median"
        + ("" if args.fixed_seed else ", over runs that differ in seed as well as in host noise")
        + ".  The last column is how much worse (+) or better (-) the median of the "
        "second half of the runs is than that of the first half.  `(!)` marks a spread "
        "above a third of the metric's bound.  The `wall` rows are the same runs' "
        "unscaled wall-clock figures and the host speed the harness measured (1.0 = the "
        "nominal host): what `setup_s` and `ops_per_s` would read without host-speed "
        "scaling.",
        "",
        f"Median wall seconds of one run, process start to exit: {walls}; "
        f"all six: {total:.0f} s.",
        "",
        f"Runs with a failed operation or an incorrect output: "
        f"{'; '.join(incorrect) if incorrect else 'none'}.",
        "",
    ]
    text = "\n".join(header + lines) + "\n"
    print(text)
    for f in flagged:
        print("FLAG", f, file=sys.stderr)
    if args.write:
        name = "CALIBRATION_FIXED_SEED.md" if args.fixed_seed else "CALIBRATION.md"
        (HERE / name).write_text(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
