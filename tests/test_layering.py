"""Import-graph check: the protocol core never reaches up into the live
runtime.

``repro.net`` hosts the core on sockets; the core, the simulator and the
two substrates must stay importable (and testable) without it.  The scan
is static and covers function-level imports too, so a lazy
``from repro.net import …`` inside a method is caught as well.
"""

import ast
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
