"""Every package and test module parses as Python 3.10, the oldest
version pyproject.toml's requires-python admits, and reads every name
it imports; every exported name, every public module-level function
and class, and every module constant of the package has a reader."""

import ast
import re
from pathlib import Path

import pytest

import fuchsian

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = sorted(ROOT.glob("src/fuchsian/*.py"))
SOURCES = PACKAGE + sorted(ROOT.glob("tests/*.py"))
BENCHMARK = sorted(ROOT.glob("perfbench/*.py"))


def test_sources_are_found():
    names = {path.name for path in SOURCES}
    assert {"moebius.py", "cli.py", "test_syntax.py"} <= names


@pytest.mark.parametrize(
    "path", SOURCES, ids=[str(p.relative_to(ROOT)) for p in SOURCES]
)
def test_parses_as_python_3_10(path):
    ast.parse(path.read_text(encoding="utf-8"), str(path), feature_version=(3, 10))


def unused_imports(tree: ast.Module) -> list[str]:
    """Names bound by an import anywhere in the module and never read.

    A name counts as read when it appears as a load (or del) of an
    ast.Name, which covers attribute bases, annotations and decorators;
    `from __future__` imports are directives, not names.
    """
    bound = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            bound += [a.asname or a.name.partition(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound += [a.asname or a.name for a in node.names]
    read = {
        node.id
        for node in ast.walk(tree)
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store)
    }
    return sorted(set(bound) - read)


def test_unused_import_scan_flags_an_unread_name():
    tree = ast.parse("import os, sys\nfrom math import pi, tau as t\nprint(sys.argv, t)\n")
    assert unused_imports(tree) == ["os", "pi"]
    tree = ast.parse("from __future__ import annotations\nimport a.b\nx: a.C = 1\n")
    assert unused_imports(tree) == []


@pytest.mark.parametrize(
    "path", SOURCES, ids=[str(p.relative_to(ROOT)) for p in SOURCES]
)
def test_every_import_is_used(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
    assert unused_imports(tree) == []


def parse(paths) -> list[ast.Module]:
    return [ast.parse(p.read_text(encoding="utf-8"), str(p)) for p in paths]


def unread_names(names, trees: list[ast.Module]) -> list[str]:
    """The names that no tree reads, as a load of an ast.Name or of an
    attribute; a bare import, an assignment or a string does not count.
    """
    read = set()
    for tree in trees:
        for node in ast.walk(tree):
            if isinstance(getattr(node, "ctx", None), ast.Store):
                continue
            if isinstance(node, ast.Name):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
    return sorted(set(names) - read)


def module_constants(tree: ast.Module) -> list[str]:
    """UPPER_CASE names (a leading underscore allowed) assigned at module level."""
    names = []
    for node in tree.body:
        if isinstance(node, ast.Assign):
            targets = node.targets
        elif isinstance(node, ast.AnnAssign):
            targets = [node.target]
        else:
            continue
        names += [
            name.id
            for target in targets
            for name in ast.walk(target)
            if isinstance(name, ast.Name) and re.fullmatch(r"_?[A-Z][A-Z0-9_]*", name.id)
        ]
    return sorted(names)


def test_unread_name_scan_flags_exports_and_constants():
    reader = ast.parse("import m, hidden\nm.used(shown)\nm.stored = 1\nx = 'quoted'\n")
    names = ["used", "shown", "stored", "hidden", "quoted"]
    assert unread_names(names, [reader]) == ["hidden", "quoted", "stored"]
    module = ast.parse(
        "LIMIT = 1\nA, _B = 2, 3\nT: int = 4\nlow = 5\ndef f():\n    INNER = 6\n"
    )
    assert module_constants(module) == ["A", "LIMIT", "T", "_B"]


def public_definitions(tree: ast.Module) -> list[str]:
    """Functions and classes defined at module level without a leading underscore."""
    return sorted(
        node.name
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        and not node.name.startswith("_")
    )


def test_public_definition_scan_flags_an_unread_helper():
    module = ast.parse(
        "class Shown:\n    def method(self):\n        pass\n"
        "class _Hidden:\n    pass\n"
        "def used():\n    return Shown()\n"
        "def helper():\n    def inner():\n        pass\n"
        "async def waiter():\n    pass\n"
    )
    names = public_definitions(module)
    assert names == ["Shown", "helper", "used", "waiter"]
    reader = ast.parse("import m\nm.used()\n")
    # defining a name does not read it
    assert unread_names(names, [module, reader]) == ["helper", "waiter"]


def private_layer_imports(tree: ast.Module) -> list[str]:
    """Underscore names imported from a module of the package, by a
    relative import or one from `fuchsian`."""
    return sorted(
        alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom)
        and (node.level > 0 or (node.module or "").partition(".")[0] == "fuchsian")
        for alias in node.names
        if alias.name.startswith("_")
    )


def test_private_import_scan_flags_underscore_names_from_the_package():
    tree = ast.parse(
        "from __future__ import annotations\nfrom os import _exit\n"
        "from . import NumericalError\nfrom .moebius import _make, compose\n"
        "def f():\n    from fuchsian.curves import _ROOTS, roots\n"
    )
    assert private_layer_imports(tree) == ["_ROOTS", "_make"]


@pytest.mark.parametrize("name", ["cli.py", "checks.py"])
def test_front_ends_import_only_public_layer_names(name):
    path = ROOT / "src" / "fuchsian" / name
    assert private_layer_imports(ast.parse(path.read_text(encoding="utf-8"))) == []


def test_every_export_is_read_by_the_package_or_the_benchmark():
    readers = [p for p in PACKAGE if p.name != "__init__.py"] + BENCHMARK
    assert unread_names(fuchsian.__all__, parse(readers)) == []


def test_every_public_definition_is_read_by_the_package_or_the_benchmark():
    names = [name for tree in parse(PACKAGE) for name in public_definitions(tree)]
    assert "MoebiusMap" in names and "render_svg" in names
    assert unread_names(names, parse(PACKAGE + BENCHMARK)) == []


def test_every_module_constant_is_read():
    constants = [name for tree in parse(PACKAGE) for name in module_constants(tree)]
    assert constants
    readers = sorted(ROOT.glob("src/**/*.py")) + BENCHMARK + sorted(ROOT.glob("tests/*.py"))
    assert unread_names(constants, parse(readers)) == []


# the layers each layer may import at module level; `from . import` (the
# package root) does not count, and neither do the front ends `cli` and
# `checks`, which sit above every layer
LAYER_IMPORTS = {
    "curves": set(),
    "moebius": set(),
    "tessellation": set(),
    "disk_geometry": {"curves"},
    "whittaker": {"moebius"},
    "group_builder": {"curves", "disk_geometry", "moebius"},
}


def layer_imports(tree: ast.Module) -> set[str]:
    """The package modules named by the module-level `from .x import` lines."""
    return {
        node.module.partition(".")[0]
        for node in tree.body
        if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module
    }


def test_layer_import_scan_reads_only_module_level_relative_imports():
    tree = ast.parse(
        "from . import NumericalError\nfrom .moebius import compose\n"
        "from fractions import Fraction\nfrom .curves.x import y\n"
        "def f():\n    from .whittaker import hyp2f1\n"
    )
    assert layer_imports(tree) == {"curves", "moebius"}


def test_each_layer_imports_only_the_layers_it_builds_on():
    layers = {p.stem: p for p in PACKAGE if p.stem not in ("__init__", "cli", "checks")}
    assert set(layers) == set(LAYER_IMPORTS)
    got = {
        name: layer_imports(ast.parse(path.read_text(encoding="utf-8")))
        for name, path in layers.items()
    }
    assert got == LAYER_IMPORTS
