"""``tools/census.py`` on a synthetic source tree: what it counts as
entered, and which child processes it still sees."""

import importlib.util
import sys
import textwrap
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parent.parent / "tools" / "census.py"
_spec = importlib.util.spec_from_file_location("census", TOOL)
census = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(census)

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


def _run(tree, out, script):
    path = tree.parent.parent / "script.py"
    path.write_text(textwrap.dedent(script))
    assert census.run(out, [f"{sys.executable} {path}"], tree.parent.parent, src=tree) == 0


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
