"""Every name a torusfill module imports is used in that module, and
every private helper it defines is used in the package.

An imported name counts as used when it is read anywhere in the module
or listed in its __all__; the package __init__ is exempt, since its
imports are the package's re-exports.  A module-level private name
(a def, class or assignment of `_x`) counts as used when some module of
the package reads it, as a name or as an attribute, outside its own
definition; a helper only the tests need belongs in the tests.

The modules are layered: each imports from the package only modules
that come before it in LAYERS.  The package __init__ and __main__ are
exempt, since they exist to import the others.

Every ResourceLimitError is raised by errors._within, the package's one
budget check, so a new budget is one more _within call."""

import ast
from collections import Counter
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "torusfill"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def imported_names(tree):
    """(bound name, line) for each import, `from __future__` aside."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.split(".")[0], node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield alias.asname or alias.name, node.lineno


def used_names(tree):
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used.update(ast.literal_eval(node.value))
    return used


def unused_imports(source):
    tree = ast.parse(source)
    used = used_names(tree)
    return sorted((line, name) for name, line in imported_names(tree) if name not in used)


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def test_detects_unused_import():
    source = "import os\nfrom math import gcd, prod\n__all__ = ['gcd']\nprint(os)\n"
    assert unused_imports(source) == [(2, "prod")]


def private_definitions(tree):
    """(name, defining node) for each module-level def, class or
    assignment of a private, non-dunder name."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
        else:
            continue
        for name in names:
            if name.startswith("_") and not name.startswith("__"):
                yield name, node


def reads(node):
    """How often each name is read under node, as a name or an attribute."""
    counts = Counter()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load):
            counts[sub.id] += 1
        elif isinstance(sub, ast.Attribute) and isinstance(sub.ctx, ast.Load):
            counts[sub.attr] += 1
    return counts


def dead_helpers(sources):
    """(module, name) for each private definition in the {module: source}
    package that no read outside its own definition reaches."""
    trees = {module: ast.parse(source) for module, source in sources.items()}
    total = sum(map(reads, trees.values()), Counter())
    return sorted(
        (module, name)
        for module, tree in trees.items()
        for name, node in private_definitions(tree)
        if total[name] == reads(node)[name]
    )


def test_no_dead_helpers():
    sources = {p.name: p.read_text() for p in PACKAGE.glob("*.py")}
    assert dead_helpers(sources) == []


def test_detects_dead_helper():
    sources = {
        "a": "_LIMIT, _unread = 3, 4\n"
             "def _recursive(n):\n"
             "    return n if n > _LIMIT else _recursive(n + 1)\n"
             "class _Used:\n"
             "    pass\n",
        "b": "import a\nprint(a._Used)\n",
    }
    assert dead_helpers(sources) == [("a", "_recursive"), ("a", "_unread")]


LAYERS = ("errors", "sl2z", "blowup", "lattice", "divisor", "fillings", "cli")


def package_imports(tree):
    """The package modules that a module imports from, whether by a
    relative or an absolute import."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            parts = (node.module or "").split(".")
            if node.level == 0 and parts[0] == "torusfill":
                parts = parts[1:]
            elif node.level != 1:
                continue
            if parts and parts[0]:
                yield parts[0]
            else:  # from . import x
                yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.Import):
            for alias in node.names:
                parts = alias.name.split(".")
                if parts[0] == "torusfill" and len(parts) > 1:
                    yield parts[1]


def layering_violations(sources):
    """(module, imported module) for each package import, in the
    {module: source} modules of LAYERS, of a module not before it."""
    rank = {name: i for i, name in enumerate(LAYERS)}
    return sorted(
        (module, dep)
        for module, source in sources.items()
        for dep in package_imports(ast.parse(source))
        if rank.get(dep, len(LAYERS)) >= rank[module]
    )


def test_modules_are_layered():
    sources = {p.stem: p.read_text() for p in MODULES if p.stem != "__main__"}
    assert sorted(sources) == sorted(LAYERS)
    assert layering_violations(sources) == []


def test_detects_layering_violation():
    sources = {name: "" for name in LAYERS}
    sources["sl2z"] = "from .lattice import determinant\nfrom .errors import DomainError\n"
    sources["blowup"] = "import torusfill.cli\nfrom torusfill import sl2z\n"
    sources["divisor"] = "from . import blowup, fillings\nfrom .obs import count\n"
    assert layering_violations(sources) == [
        ("blowup", "cli"), ("divisor", "fillings"), ("divisor", "obs"), ("sl2z", "lattice"),
    ]


def budget_raises(sources):
    """(module, line) of each `raise ResourceLimitError` or `raise
    ResourceLimitError(...)`, by name or attribute, in the {module:
    source} package outside errors._within."""
    found = []
    for module, source in sources.items():
        tree = ast.parse(source)
        exempt = set()
        if module == "errors":
            for node in tree.body:
                if isinstance(node, ast.FunctionDef) and node.name == "_within":
                    exempt.update(map(id, ast.walk(node)))
        for node in ast.walk(tree):
            if isinstance(node, ast.Raise) and node.exc is not None and id(node) not in exempt:
                exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                name = getattr(exc, "id", None) or getattr(exc, "attr", None)
                if name == "ResourceLimitError":
                    found.append((module, node.lineno))
    return sorted(found)


def test_one_budget_check():
    sources = {p.stem: p.read_text() for p in PACKAGE.glob("*.py")}
    assert budget_raises(sources) == []


def test_detects_budget_raise():
    sources = {
        "errors": "def _within(limit, size, what):\n"
                  "    if size > limit:\n"
                  "        raise ResourceLimitError(what)\n"
                  "def _other():\n"
                  "    raise ResourceLimitError\n",
        "blowup": "from . import errors\n"
                  "raise errors.ResourceLimitError('x')\n"
                  "raise DomainError('y')\n"
                  "raise\n",
    }
    assert budget_raises(sources) == [("blowup", 2), ("errors", 5)]
