"""``tools/census.py`` on a synthetic source tree, its hook installed
by :func:`census.hooked` as ``tools/contract.py check --census`` installs
it: what it counts as entered, which child processes it still sees, and
which config fields it finds one-valued."""

import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tools"))
import census  # noqa: E402

MODULE = '''
def deco(*names):
    return lambda fn: fn


def entered():
    return 1


def never():
    return 2


def allowed():
    return 3


@deco(
    "spread over lines, so the decorator and the def line differ",
)
def decorated():
    return 4


class Box:
    def __repr__(self):  # a dunder: never counted
        return "Box()"

    def in_child(self):
        return 5


def in_subprocess():
    return 6
'''

ALLOWED = {"pkg/mod.py::allowed": "kept on purpose", "pkg/mod.py::gone": "stale"}


@pytest.fixture
def tree(tmp_path):
    src = tmp_path / "src" / "pkg"
    src.mkdir(parents=True)
    (src / "__init__.py").write_text("")
    (src / "mod.py").write_text(MODULE)
    return src


def _run(tree, out, script, configs=()):
    """Run *script* with the hook over *tree* on its ``PYTHONPATH``."""
    path = tree.parent.parent / "script.py"
    path.write_text(textwrap.dedent(script))
    env = census.hooked(out, dict(os.environ, PYTHONPATH=str(tree.parent)), src=tree,
                        configs=configs)
    subprocess.run([sys.executable, str(path)], cwd=path.parent, env=env, check=True)


def _never(failures):
    return sorted(f.split(": ", 1)[1] for f in failures if f.startswith("never entered"))


def test_entered_never_allowed_stale_and_decorated(tree, tmp_path):
    out = tmp_path / "out"
    _run(tree, out, """
        import pkg.mod as m
        m.entered()
        m.decorated()
        m.Box().in_child()
        m.in_subprocess()
    """)
    failures = census.check(out, tree, ALLOWED)
    # ``decorated`` matched by its first decorator's line; ``allowed``
    # never entered but listed; ``gone`` listed but not a definition.
    assert failures == ["never entered: pkg/mod.py::never",
                        "stale allow-list entry: pkg/mod.py::gone"]
    assert census.check(out, tree, {"pkg/mod.py::allowed": "r", "pkg/mod.py::never": "r"}) == []


def test_children_that_fork_exit_or_replace_the_environment_are_counted(tree, tmp_path):
    out = tmp_path / "out"
    _run(tree, out, """
        import os, subprocess, sys
        import pkg.mod as m
        pid = os.fork()
        if pid == 0:  # leaves through os._exit, as a --jobs worker does
            m.Box().in_child()
            os._exit(0)
        os.waitpid(pid, 0)
        # A child whose environment drops the hook from PYTHONPATH.
        env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(m.__file__)))
        subprocess.run([sys.executable, "-c", "import pkg.mod as m; m.in_subprocess()"],
                       env=env, check=True)
    """)
    never = _never(census.check(out, tree, {}))
    assert "pkg/mod.py::Box.in_child" not in never
    assert "pkg/mod.py::in_subprocess" not in never
    assert "pkg/mod.py::entered" in never


def test_a_displaced_hook_fails_the_check(tree, tmp_path):
    out = tmp_path / "out"
    _run(tree, out, """
        import sys
        import pkg.mod as m
        hook = sys.getprofile()
        sys.setprofile(None)  # what a timing harness does around a call
        m.entered()
        sys.setprofile(hook)
    """)
    failures = census.check(out, tree, {})
    assert any(f.startswith("profile hook displaced") for f in failures), failures
    assert "pkg/mod.py::entered" in _never(failures)


CONFIG_MODULE = '''
from dataclasses import dataclass


@dataclass(frozen=True)
class Knobs:
    fixed: int = 1
    varied: str = "a"

    def __post_init__(self):
        pass


@dataclass(frozen=True)
class Unbuilt:
    x: int = 0

    def __post_init__(self):
        pass
'''

CONFIGS = ["pkg/conf.py::Knobs", "pkg/conf.py::Unbuilt"]


def _dump(out, knobs):
    """One synthetic process dump with these ``(class, field, repr)`` rows."""
    out.mkdir(exist_ok=True)
    n = len(list(out.glob("*.json")))
    (out / f"{n}.json").write_text(json.dumps(
        {"argv": ["x"], "displaced": False, "calls": [], "knobs": knobs}))


def test_the_hook_records_each_config_field_at_post_init(tree, tmp_path):
    (tree / "conf.py").write_text(CONFIG_MODULE)
    out = tmp_path / "out"
    _run(tree, out, """
        import pkg.conf as c
        class Sub(c.Knobs):  # a subclass counts as the listed base
            pass
        c.Knobs(varied="b")
        Sub()
    """, CONFIGS)
    (dump,) = [json.loads(p.read_text()) for p in out.glob("*.json")]
    assert dump["knobs"] == [
        ["pkg/conf.py::Knobs", "fixed", "1"],
        ["pkg/conf.py::Knobs", "varied", "'a'"],
        ["pkg/conf.py::Knobs", "varied", "'b'"],
    ]


def test_a_one_valued_field_fails_unless_allow_listed(tmp_path):
    out = tmp_path / "out"
    _dump(out, [["m::Knobs", "fixed", "1"], ["m::Knobs", "varied", "'a'"]])
    _dump(out, [["m::Knobs", "fixed", "1"], ["m::Knobs", "varied", "'b'"]])
    assert census.check_knobs(out, ["m::Knobs"], {}) == [
        "one-valued config field: m::Knobs.fixed = 1"]
    assert census.check_knobs(out, ["m::Knobs"], {"m::Knobs.fixed": "set by a flag"}) == []


def test_a_stale_knob_entry_fails(tmp_path):
    out = tmp_path / "out"
    _dump(out, [["m::Knobs", "varied", "'a'"]])
    _dump(out, [["m::Knobs", "varied", "'b'"]])
    allowed = {"m::Knobs.varied": "no longer one-valued", "m::Knobs.gone": "no such field"}
    assert census.check_knobs(out, ["m::Knobs"], allowed) == [
        "stale knob allow-list entry: m::Knobs.gone",
        "stale knob allow-list entry: m::Knobs.varied",
    ]


def test_a_config_class_no_root_constructs_fails(tmp_path):
    out = tmp_path / "out"
    _dump(out, [["m::Knobs", "varied", "'a'"]])
    _dump(out, [["m::Knobs", "varied", "'b'"]])
    assert census.check_knobs(out, ["m::Knobs", "m::Unbuilt"], {}) == [
        "config class never constructed: m::Unbuilt"]


def _public_methods(cls):
    return {
        name for name, value in vars(cls).items()
        if not name.startswith("_") and (callable(value) or isinstance(value, property))
    }


def test_the_null_telemetry_defines_only_the_real_sinks_methods():
    """The premise of the census's null-object exemption: each public
    method ``NullTelemetry`` defines overrides one ``Telemetry`` defines,
    so no method of the null object escapes the census by its name.  The
    one it inherits, ``next_trace_id``, runs only while tracing."""
    from repro.obs.telemetry import NullTelemetry, Telemetry

    assert _public_methods(NullTelemetry) <= _public_methods(Telemetry)
    assert _public_methods(Telemetry) - _public_methods(NullTelemetry) == {"next_trace_id"}
    assert census.null_overrides(k for k, _, _ in census.definitions(census.SRC)) == {
        f"repro/obs/telemetry.py::NullTelemetry.{name}" for name in _public_methods(NullTelemetry)
    }


SPEC_MODULE = '''
def grid_spec(n_nodes=10, axis=(1, 2), fixed=0.5, seed=0):
    return [n_nodes, axis, fixed, seed]


def helper(fixed=1):  # not a builder: its name does not end in _spec
    return fixed
'''


def test_the_hook_records_each_builder_parameter_defaults_included(tree, tmp_path):
    (tree / "experiments").mkdir()
    (tree / "experiments" / "__init__.py").write_text("")
    (tree / "experiments" / "grid.py").write_text(SPEC_MODULE)
    (tree / "elsewhere_spec.py").write_text("def other_spec(x=1):\n    return x\n")
    out = tmp_path / "out"
    _run(tree, out, """
        import pkg.elsewhere_spec as e
        import pkg.experiments.grid as g
        g.grid_spec(axis=(3,), seed=1)
        g.grid_spec(n_nodes=20)
        g.helper()
        e.other_spec()  # a *_spec outside experiments/ is no builder
    """)
    (dump,) = [json.loads(p.read_text()) for p in out.glob("*.json")]
    key = "pkg/experiments/grid.py::grid_spec"
    assert dump["knobs"] == sorted([
        [key, "axis", "(1, 2)"], [key, "axis", "(3,)"], [key, "fixed", "0.5"],
        [key, "n_nodes", "10"], [key, "n_nodes", "20"], [key, "seed", "0"], [key, "seed", "1"],
    ])
    assert census.check_knobs(out, [], {}) == [
        f"one-valued builder parameter: {key}.fixed = 0.5"]


def test_a_one_valued_builder_parameter_fails_unless_allow_listed_or_exempt(tmp_path):
    out = tmp_path / "out"
    key = "m.py::grid_spec"
    _dump(out, [[key, "fixed", "0.5"], [key, "size", "300"], [key, "axis", "(1,)"]])
    _dump(out, [[key, "fixed", "0.5"], [key, "size", "300"], [key, "axis", "(2,)"]])
    assert census.check_knobs(out, [], {}) == [
        f"one-valued builder parameter: {key}.fixed = 0.5",
        f"one-valued builder parameter: {key}.size = 300"]
    # ``--scale`` multiplies ``size``: the CLI varies it.
    assert census.check_knobs(out, [], {f"{key}.fixed": "a test needs it"},
                              exempt={f"{key}.size"}) == []
    assert census.check_knobs(out, [], {f"{key}.axis": "took two values"},
                              exempt={f"{key}.size", f"{key}.fixed"}) == [
        f"stale knob allow-list entry: {key}.axis"]


def test_the_exempt_knobs_are_each_commands_seed_and_scaled_sizes():
    from repro.experiments.scenarios import SCENARIOS

    exempt = census.shared_flag_knobs()
    assert "repro/experiments/scenarios.py::fig4_spec.n_nodes" in exempt
    assert "repro/experiments/scenarios.py::fig5_spec.seed" in exempt
    assert "repro/experiments/chaos.py::chaos_sweep_spec.n_topics" in exempt
    assert "repro/experiments/chaos.py::chaos_sweep_spec.fault_seed" not in exempt
    assert len(exempt) == sum(1 + len(s.scale_knobs) for s in SCENARIOS.values())
