"""Import-graph check: the protocol core never reaches up into the live
runtime.

``repro.net`` hosts the core on sockets; the core, the simulator and the
two substrates must stay importable (and testable) without it.  The scan
is static and covers function-level imports too, so a lazy
``from repro.net import …`` inside a method is caught as well.

The dynamic checks import in a subprocess: what a live node and the CLI
actually load, and that ``numpy`` is the one runtime dependency.  The
static lints below them keep out what nothing runs: state written and
never read, modules nothing imports, and definitions only tests reach.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "repro"

#: package → packages it must never import.
FORBIDDEN = {
    "core": ("repro.net",),
    "sim": ("repro.net",),
    "gossip": ("repro.net",),
    "smallworld": ("repro.net",),
}


def imported_modules(path: Path):
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield node.lineno, alias.name
        elif isinstance(node, ast.ImportFrom) and node.level == 0 and node.module:
            yield node.lineno, node.module
            # ``from repro.net import wire`` names a module too.
            for alias in node.names:
                yield node.lineno, f"{node.module}.{alias.name}"


def test_every_module_has_an_importer():
    """A module nothing imports is code nothing runs.  Every module under
    ``src/repro`` (a package's ``__init__`` / ``__main__`` aside:
    ``import`` and ``-m`` load those) is imported by another ``src/repro``
    module or by something under ``benchmarks/``, ``examples/`` or
    ``tools/``; a test alone does not count.  The definition lint below
    does not cover this: a module nothing imports can hide behind a name
    that is used elsewhere."""
    modules = {
        ".".join(path.relative_to(SRC.parent).with_suffix("").parts): path
        for path in SRC.rglob("*.py")
        if path.stem not in ("__init__", "__main__")
    }
    root = SRC.parent.parent
    imported = {
        name
        for top in ("src", "benchmarks", "examples", "tools")
        for path in (root / top).rglob("*.py")
        for _, name in imported_modules(path)
        if modules.get(name, path) != path  # known, and not by itself
    }
    orphans = sorted(set(modules) - imported)
    assert not orphans, f"imported by nothing: {orphans}"


@pytest.mark.parametrize("package", sorted(FORBIDDEN))
def test_lower_layers_do_not_import_the_live_runtime(package):
    offenders = []
    for path in sorted((SRC / package).rglob("*.py")):
        for lineno, module in imported_modules(path):
            for banned in FORBIDDEN[package]:
                if module == banned or module.startswith(banned + "."):
                    offenders.append(f"{path.relative_to(SRC.parent)}:{lineno} imports {module}")
    assert not offenders, "\n".join(offenders)


@pytest.mark.parametrize("module", ["repro.net.node", "repro.cli"])
def test_runtime_imports_load_nothing_that_measures(module):
    """Every live node process and every benchmark child imports these;
    profilers and allocation tracers belong to whoever measures from
    outside.  A subprocess, so this suite's own imports do not count."""
    code = (
        f"import sys, {module}\n"
        "print(sorted({'cProfile', 'pstats', 'tracemalloc'} & set(sys.modules)))"
    )
    env = dict(os.environ, PYTHONPATH=str(SRC.parent))
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True,
        text=True, check=True, timeout=120,
    )
    assert out.stdout.strip() == "[]"


def test_every_module_imports_with_numpy_alone():
    """``numpy`` is the one runtime dependency; ``networkx`` and ``scipy``
    are the ``dev`` extra's test-time oracles.  Every module under
    ``src/repro`` imports with both blocked, in a subprocess so this
    suite's own imports do not count."""
    modules = sorted(
        ".".join(path.relative_to(SRC.parent).with_suffix("").parts).removesuffix(".__init__")
        for path in SRC.rglob("*.py")
    )
    code = (
        "import importlib, sys\n"
        "sys.modules['scipy'] = sys.modules['networkx'] = None\n"
        f"for name in {modules!r}:\n"
        "    importlib.import_module(name)\n"
    )
    env = dict(os.environ, PYTHONPATH=str(SRC.parent))
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120,
    )
    assert out.returncode == 0, out.stderr


#: Attributes ``src/repro`` stores and never loads, each for a reason.
WRITE_ONLY_ALLOWED = {
    "cancelled",    # a property setter on the engine's event handle
    "owner",        # RoutingTable(owner, …): constructor identity; the signature is public
    "proc",         # NodeSeries(proc, …): same
    "bits",         # IdSpace(bits): read by tests
    "memberships",  # RssWorkload: the communities test_rss.py checks correlation against
}


def test_no_state_is_written_and_never_read():
    """State nobody reads is a cost with no reader to notice it going
    wrong.  An attribute assigned (``x.attr = …`` / ``x.attr += …``)
    somewhere in ``src/repro`` must be loaded somewhere in ``src/repro``,
    by name or through a ``getattr`` / ``hasattr`` string literal."""
    stores, loads = {}, set()
    for path in sorted(SRC.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Attribute):
                if isinstance(node.ctx, ast.Load):
                    loads.add(node.attr)
                elif isinstance(node.ctx, ast.Store):  # AugAssign targets too
                    stores.setdefault(node.attr, f"{path.relative_to(SRC.parent)}:{node.lineno}")
            elif (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Name)
                and node.func.id in ("getattr", "hasattr")
                and len(node.args) >= 2
                and isinstance(node.args[1], ast.Constant)
            ):
                loads.add(node.args[1].value)
    unread = {
        name: where for name, where in stores.items()
        if name not in loads and name not in WRITE_ONLY_ALLOWED
    }
    assert not unread, "\n".join(f"{where} writes .{name}, which nothing reads"
                                 for name, where in sorted(unread.items()))
    stale = sorted(n for n in WRITE_ONLY_ALLOWED if n in loads or n not in stores)
    assert not stale, f"allow-list entries no longer needed: {stale}"


#: Definitions ``src/repro`` keeps although only tests name them, each
#: for a reason.
REACHABLE_ONLY_FROM_TESTS = {
    "force_confirm": "the seam the planted false-eviction audit plants a verdict through",
}

_DEFS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _is_all(node):
    targets = getattr(node, "targets", None) or [getattr(node, "target", None)]
    return any(isinstance(t, ast.Name) and t.id == "__all__" for t in targets)


def _scan(node, owner, defs, names):
    """Walk *node*.  Each definition under it appends ``(name, owner,
    lineno)`` to *defs*; each name read appends ``(owner, name)`` to
    *names*.  *owner* is the index in *defs* of the innermost enclosing
    definition, ``None`` at module level."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, _DEFS):
            defs.append((child.name, owner, child.lineno))
            _scan(child, len(defs) - 1, defs, names)
            continue
        if isinstance(child, ast.Name):
            names.append((owner, child.id))
        elif isinstance(child, ast.Attribute):
            names.append((owner, child.attr))
        elif isinstance(child, ast.Constant) and isinstance(child.value, str) \
                and child.value.isidentifier():
            names.append((owner, child.value))
        elif _is_all(child):
            continue
        _scan(child, owner, defs, names)


def test_every_definition_is_reachable_without_tests():
    """A definition that nothing but a test names is code the system never
    runs.  Every function, method and class ``src/repro`` defines (dunders
    aside: the language calls those) must be named by a root, or by the
    body of another reachable definition.  Roots are everything under
    ``benchmarks/``, ``examples/`` and ``tools/``, and the module-level
    code of ``src/repro`` bar imports and ``__all__``.  A name is a
    variable, an attribute or an identifier-like string (``getattr``,
    ``harness.BOUNDARIES``).  The match is by name only, so two
    definitions that share a name stay alive together.  A method (or a
    nested function) is reachable only if its class (or function) is."""
    top = SRC.parent.parent
    defs, names, where = [], [], []
    for path in sorted(SRC.rglob("*.py")):
        first = len(defs)
        _scan(ast.parse(path.read_text(), filename=str(path)), None, defs, names)
        where += [f"{path.relative_to(top)}:{lineno}" for _, _, lineno in defs[first:]]
    for sub in ("benchmarks", "examples", "tools"):
        for path in (top / sub).rglob("*.py"):
            outside = []
            _scan(ast.parse(path.read_text(), filename=str(path)), None, [], outside)
            names += [(None, name) for _, name in outside]
    sources = {}
    for owner, name in names:
        sources.setdefault(name, set()).add(owner)

    def within(source, i):  # *source* is definition *i* or sits inside it
        while source is not None and source != i:
            source = defs[source][1]
        return source == i

    def reached(i, alive):  # named by a root, or by a live definition not inside *i*
        return any(s is None or (alive[s] and not within(s, i))
                   for s in sources.get(defs[i][0], ()))

    # Allow-listed definitions are live: what they call is not dead code.
    alive = [name in REACHABLE_ONLY_FROM_TESTS for name, _, _ in defs]
    changed = True
    while changed:
        changed = False
        for i, (name, parent, _) in enumerate(defs):
            if alive[i] or (parent is not None and not alive[parent]):
                continue
            if name.startswith("__") and name.endswith("__") or reached(i, alive):
                alive[i] = changed = True
    dead = sorted(
        (name, where[i]) for i, (name, parent, _) in enumerate(defs)
        if not alive[i] and (parent is None or alive[parent])
    )
    assert not dead, "reached only from tests:\n" + "\n".join(
        f"{w} {name}" for name, w in dead)
    needed = {name for i, (name, _, _) in enumerate(defs)
              if name in REACHABLE_ONLY_FROM_TESTS and not reached(i, alive)}
    stale = sorted(set(REACHABLE_ONLY_FROM_TESTS) - needed)
    assert not stale, f"allow-list entries no longer needed: {stale}"
