#!/usr/bin/env python3
"""Call census: which functions in ``src/repro`` no entry point ever
enters, and which config fields no entry point ever varies.

    python tools/contract.py check [NAME ...] --census OUT
    python tools/census.py check OUT

The roots are the commands of the contract (``tools/contract.py``).
``check --census OUT`` runs them with a generated ``sitecustomize.py``
first on ``PYTHONPATH`` (:func:`hooked`; it puts itself back into the
environment of every ``subprocess`` child that replaces it), so each
Python process an entry starts records the code objects it enters under
``src/repro`` with ``sys.setprofile`` / ``threading.setprofile``
(``call`` events only) and dumps them into OUT at ``atexit``, on
``SIGTERM`` and inside ``os._exit`` (``--jobs`` workers leave that
way).  The contract process itself is not hooked: its check functions
and in-process pins are not roots.  A process in which anything else
set a profile hook (a profiler or a timing plugin such as
pytest-benchmark, which sets one around every timed call) marks its
dump, and ``check`` fails on it: its set would be silently short.

``check`` parses every function ``src/repro`` defines (dunders aside;
the line of the first decorator, which is ``co_firstlineno``) and fails
on one no dump entered that is not in ``ALLOWED``, on a stale
``ALLOWED`` entry, and on a displaced hook.  The static reachability
lint in ``tests/test_layering.py`` is the fast check that follows
names; this is the slow one that follows calls.

The knob census rides the same dumps: when the ``__post_init__`` of a
``CONFIGS`` class is entered, the hook records the ``repr`` of each of
the instance's dataclass fields, and when a scenario builder (a function
named ``*_spec`` under ``src/repro/experiments``, found by name) is
entered, the ``repr`` of each of its parameters, defaults included.
``check`` also fails on a field or parameter that took one value across
all dumps and is not in ``ALLOWED_KNOBS``, on a stale ``ALLOWED_KNOBS``
entry, and on a ``CONFIGS`` class no root constructed: a setting nothing
sets is a constant.  A builder parameter that the CLI sets from a flag
every experiment command shares is exempt, whatever value the roots
happen to pass: ``seed`` (``--seed``) and the knobs ``--scale``
multiplies (``Scenario.scale_knobs``).
"""

from __future__ import annotations

import argparse
import ast
import json
import os
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "repro"

# Reasons shared by several entries of ALLOWED.
_GATE = "message-driven fault/latency gate or virtual-time churn and tracing (ROADMAP item 3)"
_LIVE = "the live failure path: no root kills a live node (ROADMAP item 6)"
_MISS = ("a traced miss behind a dead or falsely evicted next hop, or a failed audit: the"
         " partition-miss root misses only by partition and no-path, and every audit passes")

#: ``path::Qual.name`` -> why it stays although no root enters it.
ALLOWED = {
    "repro/analysis/clusters.py::_farthest": "runs only for clusters of more than 64 members",
    "repro/core/deployment.py::DeployedVitis.deliver": _GATE,
    "repro/core/deployment.py::DeployedVitis.leave": _GATE,
    "repro/core/deployment.py::DeployedVitis.lookup": "the live root draws no off-cluster publisher",
    "repro/core/deployment.py::DeployedVitis.span": _GATE,
    "repro/core/deployment.py::DeployedVitis.topology_version": "no root subscribes in message mode",
    "repro/core/deployment.py::DeployedVitisNode.evict_confirmed": _GATE,
    "repro/core/dissemination.py::_attribute_misses.reached_via_false_edges": _MISS,
    "repro/core/dissemination.py::_liveness_cause": _MISS,
    "repro/core/protocol.py::OverlayProtocolBase._protocol_round": "abstract: each protocol overrides it",
    "repro/experiments/executor.py::_json_default": "runs only for a trial result holding a numpy scalar",
    "repro/faults/detector.py::SwimDetector.force_confirm": "the seam the planted false-eviction audit plants a verdict through",
    "repro/faults/models.py::FaultModel.drop": "the base model's no-loss answer: every fault model overrides it",
    "repro/net/bootstrap.py::SeedClient.report_dead": _LIVE,
    "repro/net/cluster.py::_attribute_misses.miss": "a live cluster's miss: the live root delivers all",
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
_CONFIGS, _SPECS = {configs!r}, {specs!r}
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

def _spec(frame):
    code, args = frame.f_code, frame.f_locals
    key = "%s::%s" % (os.path.relpath(code.co_filename, _BASE), code.co_name)
    _knobs.update((key, name, repr(args[name]))
                  for name in code.co_varnames[:code.co_argcount + code.co_kwonlyargcount])

def _prof(frame, event, arg):
    if event == "call":
        code = frame.f_code
        _codes[id(code)] = code
        if code.co_name == "__post_init__":
            _knob(frame)
        elif code.co_name.endswith("_spec") and code.co_filename.startswith(_SPECS):
            _spec(frame)

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


def hooked(out: Path, env: dict, src: Path = SRC, configs=CONFIGS) -> dict:
    """Write the hook into *out* and return *env* with it first on
    ``PYTHONPATH``: each Python process started with the result dumps
    what it enters under *src* into *out*, and the knobs of *configs*
    and of the builders under *src*``/experiments``."""
    hook = (out / ".hook").resolve()
    hook.mkdir(parents=True, exist_ok=True)
    src = src.resolve()
    by_file = {}
    for key in configs:
        path, cls = key.split("::")
        by_file.setdefault(str(src.parent / path), {})[cls] = key
    (hook / "sitecustomize.py").write_text(HOOK.format(
        src=str(src) + os.sep, base=str(src.parent), out=str(out.resolve()), hook=str(hook),
        configs=by_file, specs=str(src / "experiments") + os.sep))
    return dict(env, PYTHONPATH=os.pathsep.join(filter(None, [str(hook), env.get("PYTHONPATH")])))


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


#: A method of the null telemetry that overrides one of the real sink is
#: exempt: the null object runs where telemetry is off, and a root that
#: turns telemetry on enters the real method instead.
_NULL_CLASS = "repro/obs/telemetry.py::NullTelemetry."
_REAL_CLASS = "repro/obs/telemetry.py::Telemetry."


def null_overrides(keys) -> set:
    """The keys among *keys* that are a null-telemetry override."""
    keys = set(keys)
    return {
        k for k in keys
        if k.startswith(_NULL_CLASS) and _REAL_CLASS + k[len(_NULL_CLASS):] in keys
    }


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
    exempt = null_overrides(key for key, _, _ in defs)
    never = {key: lines for key, site, lines in defs if site not in entered and key not in exempt}
    print(f"census: {len(dumps)} processes; {len(never)} of {len(defs)} functions never entered"
          f" ({sum(never.values())} lines), {len(allowed)} allow-listed,"
          f" {len(exempt)} null-object overrides exempt", file=sys.stderr)
    failures += [f"never entered: {k}" for k in sorted(never) if k not in allowed]
    failures += [f"stale allow-list entry: {k}" for k in sorted(allowed) if k not in never]
    return failures


def shared_flag_knobs(src: Path = SRC) -> set:
    """``path::builder.param`` of each builder parameter the CLI sets
    from a shared flag: ``seed`` and the knobs ``--scale`` multiplies."""
    import inspect

    sys.path.insert(0, str(src.parent))
    from repro.experiments.scenarios import SCENARIOS

    def key(fn):
        path = Path(inspect.getsourcefile(fn)).resolve().relative_to(src.parent.resolve())
        return f"{path.as_posix()}::{fn.__qualname__}"

    return {f"{key(s.spec)}.{k}" for s in SCENARIOS.values() for k in ("seed", *s.scale_knobs)}


def check_knobs(out: Path, configs=CONFIGS, allowed: dict = ALLOWED_KNOBS,
                exempt=frozenset()) -> list:
    """The knob census's failures over the dumps in *out* (empty: it
    passes); the builder parameters in *exempt* pass whatever they took."""
    values = {}
    for d in _dumps(out):
        for owner, name, value in d["knobs"]:
            values.setdefault(f"{owner}.{name}", set()).add(value)
    fixed = {k: v for k, v in values.items() if len(v) == 1 and k not in exempt}
    owners = {k.rsplit(".", 1)[0] for k in values}
    params = sum(1 for k in values if k.rsplit(".", 1)[0] not in configs)
    print(f"census: {len(values) - params} config fields of {len(configs)} classes,"
          f" {params} parameters of {len(owners) - len(set(configs) & owners)} builders"
          f" ({len(exempt & set(values))} set by --seed or --scale); {len(fixed)} took one value,"
          f" {len(allowed)} allow-listed", file=sys.stderr)
    failures = [f"config class never constructed: {c}" for c in configs if c not in owners]
    failures += [f"one-valued {'config field' if k.rsplit('.', 1)[0] in configs else 'builder parameter'}:"
                 f" {k} = {next(iter(fixed[k]))}" for k in sorted(fixed) if k not in allowed]
    failures += [f"stale knob allow-list entry: {k}" for k in sorted(allowed) if k not in fixed]
    return failures


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    sub = ap.add_subparsers(dest="cmd", required=True)
    c = sub.add_parser("check", help="fail on never-entered definitions and one-valued config"
                       " fields and builder parameters not allow-listed")
    c.add_argument("out", type=Path)
    args = ap.parse_args(argv)
    failures = check(args.out) + check_knobs(args.out, exempt=shared_flag_knobs())
    print("\n".join(failures) or "census: ok")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
