#!/usr/bin/env python3
"""Call census: which functions in ``src/repro`` no entry point ever
enters, and which config fields no entry point ever varies.

    python tools/census.py run OUT --group G     # one root group (see ROOTS)
    python tools/census.py run OUT -- CMD ...    # any command
    python tools/census.py check OUT

``run`` puts a generated ``sitecustomize.py`` on ``PYTHONPATH`` (and
back into the environment of every ``subprocess`` child that replaces
it), so each Python process the command starts records the code objects
it enters under ``src/repro`` with ``sys.setprofile`` /
``threading.setprofile`` (``call`` events only) and dumps them into OUT
at ``atexit``, on ``SIGTERM`` and inside ``os._exit`` (``--jobs``
workers leave that way).  A process in which anything else set a
profile hook (pytest-benchmark does around every timed call unless run
with ``--benchmark-disable``) marks its dump, and ``check`` fails on it:
its set would be silently short.

``check`` parses every function ``src/repro`` defines (dunders aside;
the line of the first decorator, which is ``co_firstlineno``) and fails
on one no dump entered that is not in ``ALLOWED``, on a stale
``ALLOWED`` entry, and on a displaced hook.  The static reachability
lint in ``tests/test_layering.py`` is the fast check that follows
names; this is the slow one that follows calls.

The knob census rides the same dumps: when the ``__post_init__`` of a
``CONFIGS`` class is entered, the hook records the ``repr`` of each of
the instance's dataclass fields.  ``check`` also fails on a field that
took one value across all dumps and is not in ``ALLOWED_KNOBS``, on a
stale ``ALLOWED_KNOBS`` entry, and on a ``CONFIGS`` class no root
constructed: a setting nothing sets is a constant.
"""

from __future__ import annotations

import argparse
import ast
import json
import os
import shlex
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "repro"

#: The census roots: CI's non-test commands (figures at ``--scale 0.1``,
#: a smaller live cluster), the examples and ``benchmarks/`` pytest.
_ROOT = shlex.quote(str(ROOT))
ROOTS = {
    "cli": [
        "python -m repro fig4 --scale 0.1 --trace-out fig4.jsonl --metrics-out fig4.json --progress",
        "for c in $(python -m repro list | tail -n +2) trace-report live-report 'live node' "
        "'live cluster'; do python -m repro $c --help > /dev/null || exit 1; done",
        "for bad in 'fig8 --hotspots 10' 'live status --port 1' 'live cluster --metrics-port 1'; "
        "do python -m repro $bad 2> /dev/null; test $? -eq 2 || exit 1; done",
        "python -m repro fig4 --scale 0.2 --jobs 2 --csv par.csv",
        "python -m repro fig4 --scale 0.2 --cache-dir cache --csv c1.csv"
        " && rm \"$(ls cache/fig4/*.json | head -1)\""
        " && python -m repro fig4 --scale 0.2 --cache-dir cache --csv c2.csv",
        "python -m repro fault_sweep --scale 0.4 --loss-rate 0.05 --fault-seed 7"
        " --csv faults.csv --trace-out faults.jsonl --metrics-out faults.json",
        "python -m repro chaos_sweep --scale 0.4 --loss-rate 0.05 --loss-rate 0.1 --fault-seed 7",
        "python -m repro fig7 --scale 0.15 --seed 1 --trace-out fig7.jsonl"
        " && python -m repro trace-report fig7.jsonl --audit",
        "python -m repro overload_sweep --scale 0.4 --pub-rate 4 --queue-capacity 0"
        " --queue-capacity 32 --queue-capacity 20 --jobs 2 --cache-dir ocache",
        "python -m repro overload_sweep --scale 0.4 --shed-policy red",
        "python -m repro overload_sweep --scale 0.4 --shed-policy drop_newest",
        "python -m repro chaos_sweep --scale 0.4 --probe-fanout 1 --suspicion-timeout 1.0",
        f"python {_ROOT}/benchmarks/perf/run.py --quick --seed 1",
        f"python {_ROOT}/benchmarks/perf/run.py --quick --seed 1 --trace 1",
        "python -m repro live cluster --procs 8 --events 10 --loss-rate 0.05 --gossip-period 0.25"
        " --converge-timeout 180 --settle 4 --trace-out live.jsonl --metrics-interval 1"
        " --series-out live.json && python -m repro trace-report live.jsonl --audit"
        " && python -m repro live-report live.json",
    ],
    "scenarios": [
        "for s in $(python -m repro list | tail -n +2); "
        "do python -m repro $s --scale 0.1 --seed 1 --jobs 2 || exit 1; done",
    ],
    "examples": [f"python {shlex.quote(str(p))}" for p in sorted((ROOT / "examples").glob("*.py"))],
    "benchmarks": [f"python -m pytest {_ROOT}/benchmarks --benchmark-disable -q -p no:cacheprovider"],
}

# Reasons shared by several entries of ALLOWED.
_GATE = "message-driven fault/latency gate or virtual-time churn and tracing (ROADMAP item 3)"
_LIVE = "the live failure path: no root kills a live node (ROADMAP item 6)"
_MISS = "miss attribution or the audit's failure path: no root misses a delivery"
_JOBS = "traced --jobs merge: no root traces with --jobs"
_NULL = "the null-object telemetry: a method the real sink overrides"
_TREES = "trace-report --trees N: no root renders span trees"

#: ``path::Qual.name`` -> why it stays although no root enters it.
ALLOWED = {
    "repro/analysis/clusters.py::_farthest": "runs only for clusters of more than 64 members",
    "repro/core/deployment.py::DeployedVitis.deliver": _GATE,
    "repro/core/deployment.py::DeployedVitis.leave": _GATE,
    "repro/core/deployment.py::DeployedVitis.span": _GATE,
    "repro/core/deployment.py::DeployedVitisNode.evict_confirmed": _GATE,
    "repro/core/dissemination.py::_attribute_misses.reached_via_false_edges": _MISS,
    "repro/core/dissemination.py::_liveness_cause": _MISS,
    "repro/core/protocol.py::OverlayProtocolBase._protocol_round": "abstract: each protocol overrides it",
    "repro/experiments/executor.py::ParallelExecutor._merge_trace": _JOBS,
    "repro/experiments/executor.py::ParallelExecutor._trace_path": _JOBS,
    "repro/experiments/executor.py::_json_default": _JOBS,
    "repro/experiments/reporting.py::rows_fingerprint": "the hash of the golden-run contract",
    "repro/faults/detector.py::SwimDetector.force_confirm": "the seam the planted false-eviction audit plants a verdict through",
    "repro/faults/models.py::FaultModel.drop": "the base model's no-loss answer: every fault model overrides it",
    "repro/net/bootstrap.py::SeedClient.report_dead": _LIVE,
    "repro/net/cluster.py::_attribute_misses.miss": _MISS,
    "repro/net/liveness.py::LiveSwimDetector._note": _LIVE,
    "repro/net/liveness.py::LiveSwimDetector._on_suspicion": _LIVE,
    "repro/net/liveness.py::LiveSwimDetector._suspect": _LIVE,
    "repro/net/liveness.py::LiveSwimDetector._suspicion_deadline": _LIVE,
    "repro/net/liveness.py::LiveSwimDetector.on_transport_failure": _LIVE,
    "repro/net/node.py::LiveNodeHost._on_give_up": _LIVE,
    "repro/net/node.py::LiveNodeHost.evict_confirmed": _LIVE,
    "repro/net/node.py::LiveNodeHost.on_swim_transition": _LIVE,
    "repro/net/store.py::MetricsStore.note_swim": _LIVE,
    "repro/obs/audit.py::AuditReport.failures": _MISS,
    "repro/obs/audit.py::EventAudit.missed": _MISS,
    "repro/obs/report.py::span_tree_lines": _TREES,
    "repro/obs/report.py::span_tree_lines.walk": _TREES,
    "repro/obs/spans.py::SpanTree.failures": _MISS,
    "repro/obs/telemetry.py::NullTelemetry.event": _NULL,
    "repro/obs/telemetry.py::NullTelemetry.merge_snapshot": _NULL,
    "repro/obs/telemetry.py::NullTelemetry.metrics_dump": _NULL,
    "repro/obs/telemetry.py::NullTelemetry.progress": _NULL,
    "repro/obs/telemetry.py::NullTelemetry.snapshot": _NULL,
    "repro/sim/engine.py::Engine._pop": _GATE,
    "repro/sim/engine.py::PeriodicTask.stop": _GATE,
    "repro/sim/engine.py::_Event.cancelled": _GATE,
    "repro/sim/latency.py::CoordinateLatency.delay": _GATE,
    "repro/sim/network.py::ConstantLatency.delay": _GATE,
    "repro/sim/network.py::LatencyModel.delay": _GATE,
    "repro/sim/network.py::Network._record_fault": _GATE,
    "repro/sim/network.py::Network._record_shed": _GATE,
    "repro/sim/network.py::Network._refused": _GATE,
    "repro/sim/network.py::_span_fields": _GATE,
}

#: ``path::Class`` of the config dataclasses whose field values the
#: knob census records.
CONFIGS = [
    "repro/core/config.py::VitisConfig",
    "repro/faults/detector.py::DetectorConfig",
    "repro/sim/capacity.py::NodeCapacity",
]

#: ``path::Class.field`` -> why the field stays although it took one
#: value in every root.
ALLOWED_KNOBS = {
    "repro/sim/capacity.py::NodeCapacity.service_rate":
        "the deployed capacity golden pins it at 14",
}

HOOK = r'''
import atexit, dataclasses, json, os, signal, subprocess, sys, threading
_SRC, _BASE, _OUT, _HOOK = {src!r}, {base!r}, {out!r}, {hook!r}
_CONFIGS = {configs!r}
_codes, _displaced, _knobs = {{}}, [], set()

def _knob(frame):
    names = _CONFIGS.get(frame.f_code.co_filename)
    if not names:
        return
    obj = frame.f_locals["self"]
    for cls in type(obj).__mro__:
        key = names.get(cls.__qualname__)
        if key is not None:
            _knobs.update((key, f.name, repr(getattr(obj, f.name)))
                          for f in dataclasses.fields(obj))
            return

def _prof(frame, event, arg):
    if event == "call":
        _codes[id(frame.f_code)] = frame.f_code
        if frame.f_code.co_name == "__post_init__":
            _knob(frame)

def _dump():
    calls = sorted({{(os.path.relpath(c.co_filename, _BASE), c.co_firstlineno, c.co_name)
                     for c in list(_codes.values()) if c.co_filename.startswith(_SRC)}})
    path = os.path.join(_OUT, "%d-%s.json" % (os.getpid(), os.urandom(4).hex()))
    with open(path + ".tmp", "w") as f:
        json.dump({{"argv": sys.argv, "displaced": bool(_displaced) or sys.getprofile() is not _prof,
                   "calls": calls, "knobs": sorted(_knobs)}}, f)
    os.replace(path + ".tmp", path)

def _setprofile(fn, _orig=sys.setprofile):
    if fn is not _prof:
        _displaced.append(fn)
    _orig(fn)

def _exit(code, _orig=os._exit):
    _dump()
    _orig(code)

def _on_term(signum, frame):
    _dump()
    signal.signal(signum, signal.SIG_DFL)
    os.kill(os.getpid(), signum)

def _popen_init(self, *args, env=None, _orig=subprocess.Popen.__init__, **kwargs):
    if env is not None and _HOOK not in env.get("PYTHONPATH", "").split(os.pathsep):
        env = dict(env, PYTHONPATH=os.pathsep.join(filter(None, [_HOOK, env.get("PYTHONPATH")])))
    _orig(self, *args, env=env, **kwargs)

sys.setprofile(_prof)
threading.setprofile(_prof)
sys.setprofile, os._exit, subprocess.Popen.__init__ = _setprofile, _exit, _popen_init
atexit.register(_dump)
if signal.getsignal(signal.SIGTERM) == signal.SIG_DFL:
    signal.signal(signal.SIGTERM, _on_term)
'''


def run(out: Path, commands, cwd: Path, src: Path = SRC, configs=CONFIGS) -> int:
    """Run each shell command under the hook in *cwd*; the first nonzero
    exit status."""
    hook = out / ".hook"
    hook.mkdir(parents=True, exist_ok=True)
    src, hook = src.resolve(), hook.resolve()
    by_file = {}
    for key in configs:
        path, cls = key.split("::")
        by_file.setdefault(str(src.parent / path), {})[cls] = key
    (hook / "sitecustomize.py").write_text(HOOK.format(
        src=str(src) + os.sep, base=str(src.parent), out=str(out.resolve()), hook=str(hook),
        configs=by_file))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(hook), str(src.parent), os.environ.get("PYTHONPATH")])))
    status = 0
    for cmd in commands:
        print(f"census: {cmd}", file=sys.stderr, flush=True)
        code = subprocess.run(cmd, shell=True, cwd=cwd, env=env).returncode
        if code:
            print(f"census: exit {code}: {cmd}", file=sys.stderr, flush=True)
        status = status or code
    return status


def definitions(src: Path):
    """Yield ``(key, (path, first line, name), lines)`` for every
    non-dunder function under *src*, keyed ``path::Qual.name``."""
    def walk(node, rel, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                first = child.decorator_list[0].lineno if child.decorator_list else child.lineno
                if not (child.name.startswith("__") and child.name.endswith("__")):
                    yield (f"{rel}::{prefix}{child.name}", (rel, first, child.name),
                           child.end_lineno - first + 1)
                yield from walk(child, rel, f"{prefix}{child.name}.")
            elif isinstance(child, ast.ClassDef):
                yield from walk(child, rel, f"{prefix}{child.name}.")
            else:
                yield from walk(child, rel, prefix)

    for path in sorted(src.rglob("*.py")):
        rel = path.relative_to(src.parent).as_posix()
        yield from walk(ast.parse(path.read_text(), filename=str(path)), rel, "")


def _dumps(out: Path) -> list:
    return [json.loads(p.read_text()) for p in sorted(out.glob("*.json"))]


def check(out: Path, src: Path = SRC, allowed: dict = ALLOWED) -> list:
    """The call census's failures over the dumps in *out* (empty: it passes)."""
    dumps = _dumps(out)
    if not dumps:
        return [f"no dumps in {out}"]
    failures = [f"profile hook displaced in {d['argv']}" for d in dumps if d["displaced"]]
    entered = {tuple(c) for d in dumps for c in d["calls"]}
    defs = list(definitions(src))
    never = {key: lines for key, site, lines in defs if site not in entered}
    print(f"census: {len(dumps)} processes; {len(never)} of {len(defs)} functions never entered"
          f" ({sum(never.values())} lines), {len(allowed)} allow-listed", file=sys.stderr)
    failures += [f"never entered: {k}" for k in sorted(never) if k not in allowed]
    failures += [f"stale allow-list entry: {k}" for k in sorted(allowed) if k not in never]
    return failures


def check_knobs(out: Path, configs=CONFIGS, allowed: dict = ALLOWED_KNOBS) -> list:
    """The knob census's failures over the dumps in *out* (empty: it passes)."""
    values = {}
    for d in _dumps(out):
        for cls, name, value in d["knobs"]:
            values.setdefault(f"{cls}.{name}", set()).add(value)
    fixed = {k: v for k, v in values.items() if len(v) == 1}
    print(f"census: {len(values)} config fields of {len(configs)} classes;"
          f" {len(fixed)} took one value, {len(allowed)} allow-listed", file=sys.stderr)
    built = {k.rsplit(".", 1)[0] for k in values}
    failures = [f"config class never constructed: {c}" for c in configs if c not in built]
    failures += [f"one-valued config field: {k} = {next(iter(fixed[k]))}"
                 for k in sorted(fixed) if k not in allowed]
    failures += [f"stale knob allow-list entry: {k}" for k in sorted(allowed) if k not in fixed]
    return failures


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    sub = ap.add_subparsers(dest="cmd", required=True)
    r = sub.add_parser("run", help="run a root group or a command under the hook")
    r.add_argument("out", type=Path)
    r.add_argument("--group", choices=sorted(ROOTS))
    c = sub.add_parser("check", help="fail on never-entered definitions and one-valued config"
                       " fields not allow-listed")
    c.add_argument("out", type=Path)
    argv = sys.argv[1:] if argv is None else argv
    cut = argv.index("--") if "--" in argv else len(argv)
    args, command = ap.parse_args(argv[:cut]), argv[cut + 1:]
    if args.cmd == "run":
        if bool(args.group) == bool(command):
            ap.error("run takes --group or a command after --, not both")
        if command:
            return run(args.out, [shlex.join(command)], Path.cwd())
        (args.out / ".work").mkdir(parents=True, exist_ok=True)  # what the roots write
        return run(args.out, ROOTS[args.group], args.out / ".work")
    failures = check(args.out) + check_knobs(args.out)
    print("\n".join(failures) or "census: ok")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
