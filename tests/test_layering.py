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
