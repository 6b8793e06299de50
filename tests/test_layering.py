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
#: for a reason, by qualified name.
REACHABLE_ONLY_FROM_TESTS = {
    "SwimDetector.force_confirm":
        "the seam the planted false-eviction audit plants a verdict through",
}

_FUNCS = (ast.FunctionDef, ast.AsyncFunctionDef)
_DEFS = _FUNCS + (ast.ClassDef,)


def _is_all(node):
    targets = getattr(node, "targets", None) or [getattr(node, "target", None)]
    return any(isinstance(t, ast.Name) and t.id == "__all__" for t in targets)


def _named(node):
    """The name a ``Name`` or an ``Attribute`` ends in, else None."""
    return getattr(node, "id", None) or getattr(node, "attr", None)


def _annotated(ann):
    """The names an annotation may hold an instance of: ``X``, ``"X"``,
    ``Optional[X]``, ``Union[X, Y]``, ``X | None``; none for a container."""
    if isinstance(ann, ast.Constant) and isinstance(ann.value, str):
        try:
            ann = ast.parse(ann.value, mode="eval").body
        except SyntaxError:
            return set()
    if isinstance(ann, ast.BinOp):
        return _annotated(ann.left) | _annotated(ann.right)
    if isinstance(ann, ast.Subscript) and _named(ann.value) in ("Optional", "Union"):
        inner = ann.slice
        return set().union(*map(_annotated, getattr(inner, "elts", [inner])))
    name = _named(ann)
    return {name} if name else set()


class _Classes:
    """What the package's classes define and derive from, and what its
    functions are annotated to return."""

    def __init__(self, trees):
        self.bases, self.knows, returns = {}, {}, {}
        for tree in trees:
            for node in ast.walk(tree):
                if isinstance(node, ast.ClassDef):
                    self.bases.setdefault(node.name, set()).update(map(_named, node.bases))
                    self.knows.setdefault(node.name, set()).update(_members(node))
                elif isinstance(node, _FUNCS):
                    returns.setdefault(node.name, []).append(_annotated(node.returns))
        # A call of a name resolves only if every definition of it says.
        self.returns = {
            name: set().union(*found) for name, found in returns.items()
            if all(r and r <= self.bases.keys() for r in found)
        }

    def family(self, names):
        """*names*, their ancestors, descendants and descendants' ancestors."""
        down = _closure(names, lambda c: [d for d, b in self.bases.items() if c in b])
        return _closure(down, lambda c: self.bases.get(c, ())) & self.bases.keys()


def _closure(start, step):
    seen, todo = set(start), list(start)
    while todo:
        for nxt in step(todo.pop()):
            if nxt not in seen:
                seen.add(nxt)
                todo.append(nxt)
    return seen


def _members(cls):
    """The attribute names a class body defines, assigns, or stores
    through its methods' first argument."""
    names = set()
    for node in cls.body:
        if isinstance(node, _DEFS):
            names.add(node.name)
        for target in getattr(node, "targets", None) or [getattr(node, "target", None)]:
            if isinstance(target, ast.Name):
                names.add(target.id)
        if isinstance(node, _FUNCS) and node.args.args:
            me = node.args.args[0].arg
            names.update(n.attr for n in ast.walk(node) if isinstance(n, ast.Attribute)
                         and isinstance(n.ctx, ast.Store) and _named(n.value) == me)
    return names


def _variables(fn, owner_class, classes):
    """The package classes each of *fn*'s local variables may hold,
    merged over all its bindings; None once any binding is one the lint
    does not follow."""
    found, followed = {}, set()

    def bind(name, held):
        old = found.get(name, set())
        found[name] = None if held is None or old is None else old | held

    def declared(ann):
        return _annotated(ann) & classes.bases.keys() or None

    args = fn.args.posonlyargs + fn.args.args + fn.args.kwonlyargs
    for i, arg in enumerate(args):
        bind(arg.arg, {owner_class} if i == 0 and owner_class else declared(arg.annotation))
    for extra in (fn.args.vararg, fn.args.kwarg):
        if extra is not None:
            bind(extra.arg, None)
    nodes = list(ast.iter_child_nodes(fn))
    while nodes:
        node = nodes.pop()
        if isinstance(node, _DEFS + (ast.Lambda,)):
            continue
        nodes.extend(ast.iter_child_nodes(node))
        target = getattr(node, "target", None) or (getattr(node, "targets", None) or [None])[0]
        if isinstance(node, ast.AnnAssign) and isinstance(target, ast.Name):
            followed.add(target)
            bind(target.id, declared(node.annotation))
        elif isinstance(node, ast.Assign) and len(node.targets) == 1 \
                and isinstance(target, ast.Name):
            followed.add(target)
            called = _named(node.value.func) if isinstance(node.value, ast.Call) else None
            bind(target.id, {called} if called in classes.bases else classes.returns.get(called))
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store) \
                and node not in followed:
            bind(node.id, None)
    return found


def _scan(node, owner, defs, refs, classes, scope=()):
    """Walk *node*.  Each definition under it appends ``(name, owner,
    lineno, is_class)`` to *defs*; each name read appends ``(owner, name,
    receiver)`` to *refs*: *receiver* is ``"name"`` for a variable, the
    set of package classes an attribute's object may be, or None when
    that is not known (a string, an untyped object).  *owner* is the
    index in *defs* of the innermost enclosing definition, ``None`` at
    module level; *scope* is the enclosing functions' variables,
    innermost first."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, _DEFS):
            defs.append((child.name, owner, child.lineno, isinstance(child, ast.ClassDef)))
            inner = scope
            if isinstance(child, _FUNCS):
                method = owner is not None and defs[owner][3] and not any(
                    _named(d) == "staticmethod" for d in child.decorator_list)
                cls = defs[owner][0] if method else None
                inner = (_variables(child, cls, classes),) + scope
            _scan(child, len(defs) - 1, defs, refs, classes, inner)
            continue
        if isinstance(child, ast.Name):
            refs.append((owner, child.id, "name"))
        elif isinstance(child, ast.Attribute):
            held = None
            if isinstance(child.value, ast.Name):
                var = child.value.id
                held = next((v[var] for v in scope if var in v),
                            {var} if var in classes.bases else None)
            refs.append((owner, child.attr, held))
        elif isinstance(child, ast.Constant) and isinstance(child.value, str) \
                and child.value.isidentifier():
            refs.append((owner, child.value, None))
        elif _is_all(child):
            continue
        _scan(child, owner, defs, refs, classes, scope)


def test_every_definition_is_reachable_without_tests():
    """A definition that nothing but a test names is code the system never
    runs.  Every function, method and class ``src/repro`` defines (dunders
    aside: the language calls those) must be named by a root, or by the
    body of another reachable definition.  Roots are everything under
    ``benchmarks/``, ``examples/`` and ``tools/``, and the module-level
    code of ``src/repro`` bar imports and ``__all__``.  A name is a
    variable, an attribute or an identifier-like string (``getattr``,
    ``harness.BOUNDARIES``).

    A method ``C.m`` is named by ``x.m`` only if ``x`` may be a ``C``:
    the lint follows ``self``, annotations, and a variable assigned a
    class's instance or the call of a function annotated to return one,
    through subclasses and base classes.  An object it cannot follow, or
    whose classes define no ``m``, names every ``m``; a variable names
    functions and classes, not methods.  A method (or a nested function)
    is reachable only if its class (or function) is."""
    top = SRC.parent.parent
    paths = sorted(SRC.rglob("*.py"))
    trees = [ast.parse(path.read_text(), filename=str(path)) for path in paths]
    classes = _Classes(trees)
    defs, refs, where = [], [], []
    for path, tree in zip(paths, trees):
        first = len(defs)
        _scan(tree, None, defs, refs, classes)
        where += [f"{path.relative_to(top)}:{d[2]}" for d in defs[first:]]
    for sub in ("benchmarks", "examples", "tools"):
        for path in (top / sub).rglob("*.py"):
            outside = []
            _scan(ast.parse(path.read_text(), filename=str(path)), None, [], outside, classes)
            refs += [(None, name, held) for _, name, held in outside]

    def qualified(i):
        name, parent = defs[i][0], defs[i][1]
        return name if parent is None else f"{qualified(parent)}.{name}"

    def method_of(i):  # the class *i* is a method of, else None
        parent = defs[i][1]
        return defs[parent][0] if parent is not None and defs[parent][3] else None

    by_name = {}
    for i, d in enumerate(defs):
        by_name.setdefault(d[0], []).append(i)
    sources = [set() for _ in defs]
    for owner, name, held in refs:
        targets = by_name.get(name, ())
        if held == "name":  # a function or class, or a method its class body names
            targets = [i for i in targets
                       if method_of(i) is None or defs[i][1] == owner]
        elif held is not None:
            family = classes.family(held)
            if any(name in classes.knows[c] for c in family):
                targets = [i for i in targets if method_of(i) in family]
        for i in targets:
            sources[i].add(owner)

    def within(source, i):  # *source* is definition *i* or sits inside it
        while source is not None and source != i:
            source = defs[source][1]
        return source == i

    def reached(i, alive):  # named by a root, or by a live definition not inside *i*
        return any(s is None or (alive[s] and not within(s, i)) for s in sources[i])

    # Allow-listed definitions are live: what they call is not dead code.
    alive = [qualified(i) in REACHABLE_ONLY_FROM_TESTS for i in range(len(defs))]
    changed = True
    while changed:
        changed = False
        for i, (name, parent, _, _) in enumerate(defs):
            if alive[i] or (parent is not None and not alive[parent]):
                continue
            if name.startswith("__") and name.endswith("__") or reached(i, alive):
                alive[i] = changed = True
    dead = sorted(
        (qualified(i), where[i]) for i, (_, parent, _, _) in enumerate(defs)
        if not alive[i] and (parent is None or alive[parent])
    )
    assert not dead, "reached only from tests:\n" + "\n".join(
        f"{w} {name}" for name, w in dead)
    needed = {qualified(i) for i in range(len(defs))
              if qualified(i) in REACHABLE_ONLY_FROM_TESTS and not reached(i, alive)}
    stale = sorted(set(REACHABLE_ONLY_FROM_TESTS) - needed)
    assert not stale, f"allow-list entries no longer needed: {stale}"
