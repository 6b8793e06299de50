#!/usr/bin/env python3
"""The repo's contract: every command CI runs outside the test suite,
what each must produce, and the pinned values it must reproduce.

    python tools/contract.py check [NAME ...] [--work DIR] [--census OUT]
    python tools/contract.py repin NAME ... [--work DIR]

``check`` runs each named entry of ``ENTRIES`` (all by default) in a
fresh ``DIR/NAME``, compares its pin with ``MANIFEST`` and its outputs
with the committed files, runs its check function, and exits 1 on a
failure, each printed with its entry's name.  ``repin`` rewrites an
entry's manifest values, each beside the command that produced it, or
its committed files: the only re-pin procedure.  ``check --census OUT``
runs the entries' commands under the call census's hook
(``tools/census.py``), which dumps what each of their processes enters
into OUT; this process runs unhooked.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import re
import shlex
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import Callable, Dict, NamedTuple, Optional, Tuple

import census

ROOT = Path(__file__).resolve().parent.parent
MANIFEST = ROOT / "tests" / "fixtures" / "contract.json"


class Entry(NamedTuple):
    #: Shell commands run in order in the entry's directory; ``{repo}``
    #: stands for the repository root.
    commands: Tuple[str, ...] = ()
    #: Asserts over the entry's directory; an ``AssertionError`` fails it.
    check: Optional[Callable[[Path], None]] = None
    #: The entry's manifest values, computed from its directory.
    pin: Optional[Callable[[Path], dict]] = None
    #: ``output -> committed file``, equal byte for byte.
    files: Dict[str, str] = {}


# ----------------------------------------------------------------------
# Pins
# ----------------------------------------------------------------------
def csv_pin(name: str) -> Callable[[Path], dict]:
    """The sha256 of one output."""
    return lambda work: {"sha256": hashlib.sha256((work / name).read_bytes()).hexdigest()}


def rows_line(stdout: str) -> dict:
    """The row count and ``rows_sha256`` a scenario command prints last."""
    (count, sha), = re.findall(r"^(\d+) rows, rows_sha256 ([0-9a-f]{64})$", stdout, re.M)
    return {"rows": int(count), "sha256": sha}


def _rows_pin(work: Path) -> dict:
    return rows_line((work / "stdout.txt").read_text())


def _perf_pin(work: Path) -> dict:
    """Each workload's ``sim_sha256`` from ``run.py``'s report."""
    text = (work / "stdout.txt").read_text()
    return {"sim_sha256": dict(re.findall(
        r"^== (\w+)\s+seed=.*?^\s+sim_sha256 ([0-9a-f]{64})$", text, re.M | re.S))}


def deployed_fingerprint(capacity: bool) -> str:
    """sha256 over everything a small deployed-mode run decides in a
    fixed virtual time, elastic or under a tight capacity model (so sheds
    and backpressure deferrals are part of the trajectory): per-kind
    traffic, every node's routing table and relay parents, and the
    oracle-graded ``measure()`` summary."""
    import random

    from repro.core.config import VitisConfig
    from repro.core.deployment import DeployedVitis
    from repro.experiments.runner import measure
    from repro.sim.capacity import CapacityModel, NodeCapacity
    from repro.sim.network import UniformLatency
    from repro.workloads.subscriptions import bucket_subscriptions

    seed = 4
    subs = bucket_subscriptions(
        40, 60, n_buckets=10, buckets_per_node=2, topics_per_bucket=4, seed=seed)
    d = DeployedVitis(subs, VitisConfig(rt_size=8), seed=seed,
                      latency=UniformLatency(0.01, 0.15, random.Random(seed)))
    if capacity:
        d.attach_capacity(CapacityModel(NodeCapacity(service_rate=14, queue_depth=16)))
    d.run(40)
    net = d.network
    doc = {
        "sent": sorted(net.sent.items()),
        "delivered": sorted(net.delivered.items()),
        "shed": sorted(net.shed.items()),
        "deferred": d.backpressure_deferred,
        "rt": {a: d.nodes[a].rt.addresses for a in sorted(d.nodes)},
        "relay_parents": {a: sorted(d.nodes[a].relay.parent.items()) for a in sorted(d.nodes)},
        "summary": measure(d, 60, seed=seed + 1).summary(),
    }
    return hashlib.sha256(json.dumps(doc, sort_keys=True).encode()).hexdigest()


def _deployed_pin(work: Path) -> dict:
    return {f"{mode}_sha256": deployed_fingerprint(mode == "capacity")
            for mode in ("elastic", "capacity")}


# ----------------------------------------------------------------------
# Checks
# ----------------------------------------------------------------------
def _csv(path: Path) -> list:
    import csv

    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def _same(*pairs: Tuple[str, str]) -> Callable[[Path], None]:
    """Each pair of outputs is byte-identical."""
    def check(work: Path) -> None:
        for a, b in pairs:
            assert (work / a).read_bytes() == (work / b).read_bytes(), f"{a} differs from {b}"
    return check


def _check_telemetry(work: Path) -> None:
    from repro.obs import read_trace

    kinds = {e["ev"] for e in read_trace(str(work / "trace.jsonl"))}
    missing = {"gossip_exchange", "lookup", "election", "delivery"} - kinds
    assert not missing, f"missing trace event types: {missing}"
    dump = json.loads((work / "metrics.json").read_text())
    assert dump["metrics"]["counters"]["engine_cycles_total"] > 0
    assert any("/" in p for p in dump["phases"]), "no nested phases"


def _check_fault(work: Path) -> None:
    """Healing engaged, delivery held up, and the untraced sweep, which
    replays repeat publishes, matches the traced one, which walks them."""
    from repro.obs import read_trace

    counters = json.loads((work / "faults.json").read_text())["metrics"]["counters"]
    retries = sum(v for k, v in counters.items() if k.startswith("retries_total"))
    assert retries > 0, f"no retries recorded: {sorted(counters)}"
    assert sum(v for k, v in counters.items() if k.startswith("faults_injected_total")) > 0, \
        "no faults injected"
    kinds = {e["ev"] for e in read_trace(str(work / "faults.jsonl"))}
    assert {"fault", "retry", "repair"} <= kinds, f"missing fault trace events: {kinds}"

    rows = _csv(work / "faults.csv")
    vitis = [r for r in rows if r["system"] == "vitis"]
    assert vitis and all(float(r["hit_ratio"]) >= 0.8 for r in vitis), \
        [(r["loss_rate"], r["hit_ratio"]) for r in vitis]
    for r in vitis:
        mate = next(x for x in rows if x["system"] == "rvr"
                    and x["loss_rate"] == r["loss_rate"] and x["phase"] == r["phase"])
        assert float(r["hit_ratio"]) >= float(mate["hit_ratio"]), \
            (r["loss_rate"], r["hit_ratio"], mate["hit_ratio"])
    _same(("faults.csv", "faults_untraced.csv"))(work)


def _check_partition_miss(work: Path) -> None:
    """The partition really misses deliveries, so the audit that passed
    attributed every one of them."""
    from repro.obs import read_trace

    events = read_trace(str(work / "partition.jsonl"))
    assert any(e["ev"] == "miss" for e in events), "the partitioned point missed nothing"


def _check_chaos(work: Path) -> None:
    """SWIM beats the heartbeat baseline on false evictions: strictly
    fewer at equal-or-better detection latency (one-cycle granularity
    per rate; strict on the sweep aggregate)."""
    rows = _csv(work / "chaos.csv")
    assert len(rows) == 4, f"expected 4 rows, got {len(rows)}"
    cell = {(r["detector"], r["loss_rate"]): r for r in rows}
    rates = sorted({r["loss_rate"] for r in rows})
    for rate in rates:
        sw, hb = cell[("swim", rate)], cell[("heartbeat", rate)]
        assert float(sw["false_eviction_rate"]) < float(hb["false_eviction_rate"]), (rate, sw, hb)
        assert float(sw["detection_latency"]) <= float(hb["detection_latency"]) + 1.0, \
            (rate, sw, hb)
        assert int(sw["undetected"]) <= int(hb["undetected"])
        # The machinery ran; the baseline never built a detector.
        assert int(sw["probes_sent"]) > 0 and int(sw["suspicions"]) > 0
        assert int(hb["probes_sent"]) == 0
        # Crash victims came back through the graceful rejoin path.
        assert int(sw["rejoined"]) > 0
        assert int(sw["detector_rejoins"]) == int(sw["rejoined"])
    latency = {d: sum(float(cell[(d, r)]["detection_latency"]) for r in rates)
               for d in ("swim", "heartbeat")}
    assert latency["swim"] < latency["heartbeat"], "SWIM slower in aggregate"


def _check_spans(work: Path) -> None:
    """The audit's exit code already failed on an unexplained miss, an
    incomplete tree or a broken envelope; here the trace is not empty
    and every routed hop kind ran."""
    from repro.obs import read_trace
    from repro.obs.audit import audit_trace
    from repro.obs.critical_path import hop_kind_table
    from repro.obs.spans import build_span_trees

    events = read_trace(str(work / "fig7.jsonl"))
    report = audit_trace(events)
    assert report.n_events > 0 and report.expected_total > 0
    table = hop_kind_table(build_span_trees(events).values())
    for kind in ("flood", "relay", "rendezvous"):
        assert table[kind]["spans"] > 0, (kind, table)


def _check_overload(work: Path) -> None:
    """Hit ratio degrades monotonically as capacity shrinks, and the
    control plane survives every bounded capacity."""
    rows = _csv(work / "overload.csv")
    assert len(rows) == 6, f"expected 6 rows, got {len(rows)}"
    cell = {(r["system"], int(r["capacity"])): r for r in rows}
    ladder = [0, 32, 20]  # 0 = unbounded; then shrinking capacity
    for system in ("vitis", "rvr"):
        curve = [float(cell[(system, c)]["hit_ratio"]) for c in ladder]
        for hi, lo in zip(curve, curve[1:]):
            assert lo <= hi + 0.02, f"{system} not monotone: {curve}"
        assert curve[0] == 1.0, f"{system} unbounded baseline: {curve}"
    for cap in ladder[1:]:
        v = cell[("vitis", cap)]
        assert float(v["control_survival"]) > 0.95, v
        assert int(v["shed_total"]) > 0, v


def _check_overload_off(work: Path) -> None:
    """The capacity-0 rows equal the plain, pre-capacity code path (no
    capacity model, no backpressure polling) byte for byte."""
    import numpy as np

    from repro.core.config import VitisConfig
    from repro.experiments.reporting import rows_to_csv
    from repro.experiments.runner import build_rvr, build_vitis, make_subscriptions, metrics_row
    from repro.experiments.scenarios import SCENARIOS
    from repro.sim.metrics import MetricsCollector
    from repro.workloads.publication import sample_topics

    sizes = SCENARIOS["overload_sweep"].scaled_kwargs(0.4)
    seed, pub_rate, load_cycles = 0, 4, 10
    rows = []
    for system, builder in (("vitis", build_vitis), ("rvr", build_rvr)):
        subs = make_subscriptions("high", sizes["n_nodes"], sizes["n_topics"], seed)
        proto = builder(subs, VitisConfig(), seed=seed)
        col = MetricsCollector()
        rng = np.random.default_rng(seed + 1)
        topics = [t for t in proto.topics() if proto.subscribers(t)]
        for _ in range(load_cycles):
            proto.run_cycles(1)
            for topic in sample_topics(proto.rates, pub_rate, rng, restrict=topics):
                pubs = sorted(proto.subscribers(topic))
                col.add(proto.publish(topic, pubs[int(rng.integers(len(pubs)))]))
        row = metrics_row(col, system=system, pub_rate=pub_rate, capacity=0,
                           policy="drop_lowest")
        row.update(shed_fraction=0.0, data_shed_fraction=0.0, control_survival=1.0,
                   shed_total=0, backpressure=0, deferred=0, hotspot_load=0, hotspot_shed=0)
        rows.append(row)
    expected = rows_to_csv(json.loads(json.dumps(rows)))
    actual = (work / "unset.csv").read_bytes().decode()
    assert actual == expected, \
        f"capacity-unset CSV differs:\n--- sweep ---\n{actual}--- plain ---\n{expected}"


# ----------------------------------------------------------------------
# The table
# ----------------------------------------------------------------------
_FAULT = "python -m repro fault_sweep --scale 0.4 --loss-rate 0.05 --fault-seed 7 --csv faults"
_OVERLOAD = "python -m repro overload_sweep --scale 0.4"
_RESULTS = sorted(p.stem for p in (ROOT / "results").glob("*.csv"))
_HASHSEED = ("fig10", "chaos_sweep")


def _pairs(workload: str, layers: str) -> str:
    return (f"python {{repo}}/tools/perf_pairs.py --parent {{repo}} --workload {workload}"
            f" --seeds 1..2 --quick --layers {layers}")


ENTRIES: Dict[str, Entry] = {
    "telemetry": Entry(
        ("python -m repro fig4 --scale 0.1 --trace-out trace.jsonl --metrics-out metrics.json"
         " --progress",),
        check=_check_telemetry),
    # Every command answers --help; a flag on the wrong command, and the
    # removed live console and its port flag, are usage errors.
    "help": Entry((
        "for c in $(python -m repro list | tail -n +2) trace-report live-report 'live node'"
        " 'live cluster'; do python -m repro $c --help > /dev/null || exit 1; done",
        "for bad in 'fig8 --hotspots 10' 'live status --port 1' 'live cluster --metrics-port 1';"
        " do python -m repro $bad 2> /dev/null; test $? -eq 2 || exit 1; done")),
    # Rows do not depend on how many worker processes run the trials;
    # fig10's nine trials on four workers reuse a process's Twitter sample.
    "parallel": Entry(
        ("python -m repro fig4 --scale 0.2 --csv ser.csv",
         "python -m repro fig4 --scale 0.2 --jobs 2 --csv par.csv",
         "python -m repro fig10 --scale 0.2 --csv f10-ser.csv",
         "python -m repro fig10 --scale 0.2 --jobs 4 --csv f10-par.csv"),
        check=_same(("ser.csv", "par.csv"), ("f10-ser.csv", "f10-par.csv"))),
    "resume": Entry(
        ("python -m repro fig4 --scale 0.2 --cache-dir cache --csv c1.csv",
         'rm "$(ls cache/fig4/*.json | head -1)"',
         "python -m repro fig4 --scale 0.2 --cache-dir cache --csv c2.csv"),
        check=_same(("c1.csv", "c2.csv"))),
    "fault": Entry(
        (f"{_FAULT}.csv --trace-out faults.jsonl --metrics-out faults.json",
         f"{_FAULT}_untraced.csv"),
        check=_check_fault, pin=csv_pin("faults.csv")),
    # The audit's exit code requires every miss of a partition explained.
    "partition-miss": Entry(
        ("python -m repro fault_sweep --scale 0.2 --seed 1 --loss-rate 0 --partition 4"
         " --trace-out partition.jsonl",
         "python -m repro trace-report partition.jsonl --audit"),
        check=_check_partition_miss),
    "chaos": Entry(
        ("python -m repro chaos_sweep --scale 0.4 --loss-rate 0.05 --loss-rate 0.1"
         " --fault-seed 7 --csv chaos.csv",),
        check=_check_chaos, pin=csv_pin("chaos.csv")),
    # The SWIM knobs reach only a swim trial (heartbeat builds no
    # detector); one loss rate gives --loss-rate a value the chaos pin's
    # default pair does not.
    "swim-knobs": Entry(
        ("python -m repro chaos_sweep --scale 0.4 --detector swim --loss-rate 0.1"
         " --probe-fanout 1 --suspicion-timeout 1.0",)),
    "trace-audit": Entry(
        ("python -m repro fig7 --scale 0.15 --seed 1 --trace-out fig7.jsonl",
         "python -m repro trace-report fig7.jsonl --audit"),
        check=_check_spans),
    "trace-trees": Entry(
        ("python -m repro fig7 --scale 0.15 --seed 1 --jobs 2 --trace-out fig7j.jsonl",
         "python -m repro trace-report fig7j.jsonl --trees 3")),
    "overload": Entry(
        (f"{_OVERLOAD} --pub-rate 4 --queue-capacity 0 --queue-capacity 32 --queue-capacity 20"
         " --jobs 2 --cache-dir ocache --csv overload.csv",),
        check=_check_overload, pin=csv_pin("overload.csv")),
    "overload-off": Entry(
        (f"{_OVERLOAD} --pub-rate 4 --queue-capacity 0 --csv unset.csv",),
        check=_check_overload_off),
    "shed-policies": Entry(
        (f"{_OVERLOAD} --shed-policy red", f"{_OVERLOAD} --shed-policy drop_newest")),
    # The contract benchmark wraps public boundaries by name; a rename
    # that breaks one must fail here, not in the bench pipeline.
    "perf-quick": Entry(("python {repo}/benchmarks/perf/run.py --quick --seed 1",),
                        pin=_perf_pin),
    "perf-trace": Entry(("python {repo}/benchmarks/perf/run.py --quick --seed 1 --trace 1",)),
    # The pair runner, the checkout against a copy of itself (no git
    # needed, so it runs in an exported tree).  A pair requires equal .calls,
    # so --layers names boundaries whose counts do not move by design (not
    # udp_pair's wire.decode: one ack per drained batch; not publish_faulty's
    # MessageLoss.drop: the flood draws its trials in place).
    "perf-pairs": Entry((
        _pairs("udp_pair", "net.transport.send,net.wire.encode"),
        _pairs("twitter_build", "core.node.tman_step,gossip.ps_step,core.gateway.election_round"),
        _pairs("churn_flash",
               "core.gateway.election_round,smallworld.lookup,core.relay.install_relays"),
        _pairs("deployed_run", "sim.engine.run,sim.network.send,core.deployment.on_message"),
        _pairs("publish_faulty", "core.dissemination.publish"),
        _pairs("publish_static", "core.dissemination.publish,experiments.measure"))),
    # The full live path under 5 % UDP loss with metric streaming on.  The
    # cluster's exit code folds in join, ring convergence, zero
    # unexplained audit misses, the in-sim hit-ratio band and clean
    # shutdown; the merged trace must pass the standalone audit too.
    "live": Entry((
        "timeout 600 python -m repro live cluster --procs 20 --events 30 --loss-rate 0.05"
        " --gossip-period 0.25 --converge-timeout 180 --settle 4 --trace-out live_trace.jsonl"
        " --metrics-interval 1 --series-out live_series.json",
        "python -m repro trace-report live_trace.jsonl --audit",
        "python -m repro live-report live_series.json")),
    # The fault, overload, chaos and Magnet sweeps assert their orderings
    # at bench size; the run includes benchmarks/perf/tests.  The paper's
    # figures run once, in `results`; tier-1 tests/test_figure_shapes.py
    # asserts their shapes on the committed CSVs.
    "benchmarks": Entry(("python -m pytest -q -p no:cacheprovider {repo}/benchmarks",)),
    "examples": Entry(tuple(f"python {{repo}}/examples/{p.name}"
                            for p in sorted((ROOT / "examples").glob("*.py")))),
    "results": Entry(
        tuple(f"python -m repro {n} --seed 1 --jobs 2 --csv {n}.csv > /dev/null"
              for n in _RESULTS),
        files={f"{n}.csv": f"results/{n}.csv" for n in _RESULTS}),
    # Compiled forwarding tables snapshot set iteration order, and a set
    # of ints iterates the same under every hash seed; a str key reaching
    # such a set would make the rows depend on it.
    "hashseed": Entry(
        tuple(f"PYTHONHASHSEED={h} python -m repro {n} --scale 0.2 --seed 1 --csv {n}-{h}.csv"
              " > /dev/null" for n in _HASHSEED for h in (1, 2)),
        check=_same(*((f"{n}-1.csv", f"{n}-2.csv") for n in _HASHSEED))),
    # The golden runs tests/integration/test_golden_runs.py replays: fig7
    # the detached fast path, fig4 all three systems, chaos_sweep faults,
    # capacity, detector and healing composed, fault_sweep all three
    # systems under loss with bounded retries; then message-driven mode.
    **{f"rows-{name}": Entry((f"python -m repro {name} --seed {seed} --scale {scale}",),
                             pin=_rows_pin)
       for name, seed, scale in (("fig4", 3, 0.05), ("fig7", 1, 0.05),
                                 ("chaos_sweep", 1, 0.1), ("fault_sweep", 1, 0.1))},
    "deployed": Entry(pin=_deployed_pin),
}


def _expand(cmd: str) -> str:
    return cmd.replace("{repo}", shlex.quote(str(ROOT)))


def producer(entry: Entry) -> str:
    """The command the manifest records beside an entry's values."""
    return " && ".join(entry.commands) or "in process: deployed_fingerprint(capacity=False|True)"


def load_manifest() -> dict:
    return json.loads(MANIFEST.read_text())


def _execute(name: str, entry: Entry, work: Path, env: dict) -> Optional[str]:
    """Run *entry*'s commands in a fresh *work*; the failure, if any."""
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    with open(work / "stdout.txt", "w") as log:
        for cmd in map(_expand, entry.commands):
            print(f"contract: {name}: {cmd}", file=sys.stderr, flush=True)
            t0 = time.time()
            proc = subprocess.run(cmd, shell=True, cwd=work, env=env,
                                  stdout=subprocess.PIPE, text=True)
            sys.stdout.write(proc.stdout)
            log.write(proc.stdout)
            print(f"contract: {name}: exit {proc.returncode} in {time.time() - t0:.1f}s",
                  file=sys.stderr, flush=True)
            if proc.returncode:
                return f"{name}: exit {proc.returncode}: {cmd}"
    return None


def _verify(name: str, entry: Entry, work: Path, pinned: dict) -> list:
    """What *entry*'s outputs in *work* break."""
    found = []
    if entry.pin is not None:
        want = pinned.get(name, {})
        if want.get("command") != producer(entry):
            found.append(f"{name}: the manifest does not hold the table's command; repin it")
        found += [f"{name}: {key} drifted: pinned {want.get(key)}, got {value}"
                  for key, value in entry.pin(work).items() if want.get(key) != value]
    found += [f"{name}: {out} differs from the committed {committed}"
              for out, committed in entry.files.items()
              if (work / out).read_bytes() != (ROOT / committed).read_bytes()]
    if entry.check is not None:
        try:
            entry.check(work)
        except AssertionError as exc:
            found.append(f"{name}: check failed: {exc}")
    return found


def run(names, work_root: Path, repin: bool = False, census_out: Optional[Path] = None) -> list:
    """Check each named entry, or re-pin it; the failures (empty: all hold).
    With *census_out*, the entries' commands run under the census hook."""
    pinned = load_manifest() if MANIFEST.exists() else {}
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])))
    if census_out is not None:
        env = census.hooked(census_out, env)
    failures = []
    for name in names:
        entry, work = ENTRIES[name], work_root / name
        if repin and entry.pin is None and not entry.files:
            failures.append(f"{name}: pins nothing")
            continue
        failure = _execute(name, entry, work, env)
        if failure:
            failures.append(failure)
        elif not repin:
            found = _verify(name, entry, work, pinned)
            print(f"contract: {name}: {'FAILED' if found else 'ok'}", file=sys.stderr)
            failures += found
        else:
            if entry.pin is not None:
                pinned[name] = {"command": producer(entry), **entry.pin(work)}
                MANIFEST.write_text("{\n" + ",\n".join(
                    f"  {json.dumps(k)}: {json.dumps(v)}" for k, v in pinned.items()) + "\n}\n")
            for out, committed in entry.files.items():
                shutil.copyfile(work / out, ROOT / committed)
    return failures


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    sub = ap.add_subparsers(dest="cmd", required=True)
    for cmd, nargs in (("check", "*"), ("repin", "+")):
        p = sub.add_parser(cmd, help=f"{cmd} the named entries (check: all by default)")
        p.add_argument("names", nargs=nargs, metavar="NAME")
        p.add_argument("--work", type=Path, help="keep each entry's outputs in WORK/NAME")
    sub.choices["check"].add_argument(
        "--census", type=Path, metavar="OUT", help="dump what the commands enter into OUT")
    ap.set_defaults(census=None)
    args = ap.parse_args(argv)
    unknown = [n for n in args.names if n not in ENTRIES]
    if unknown:
        ap.error(f"unknown entries {unknown}; the table holds {' '.join(ENTRIES)}")
    sys.path.insert(0, str(ROOT / "src"))  # the check functions import repro
    names = args.names or list(ENTRIES)
    with tempfile.TemporaryDirectory() as tmp:
        failures = run(names, (args.work or Path(tmp)).resolve(), args.cmd == "repin",
                       args.census)
    print("\n".join(failures) or f"contract: {args.cmd} ok: {' '.join(names)}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
