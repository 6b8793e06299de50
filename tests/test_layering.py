"""Import-graph check: the protocol core never reaches up into the live
runtime.

``repro.net`` hosts the core on sockets; the core, the simulator and the
two substrates must stay importable (and testable) without it.  The scan
is static and covers function-level imports too, so a lazy
``from repro.net import …`` inside a method is caught as well.

The second check is dynamic: what a live node and the CLI actually load.
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
    """A module nothing imports is code nothing runs: it is either dead
    or missing its test.  Every module under ``src/repro`` (a package's
    ``__init__`` / ``__main__`` aside: ``import`` and ``-m`` load those)
    is imported by another ``src/repro`` module or by something under
    ``tests/``, ``benchmarks/`` or ``examples/``."""
    modules = {
        ".".join(path.relative_to(SRC.parent).with_suffix("").parts): path
        for path in SRC.rglob("*.py")
        if path.stem not in ("__init__", "__main__")
    }
    root = SRC.parent.parent
    imported = {
        name
        for top in ("src", "tests", "benchmarks", "examples")
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
