"""Every package and test module parses as Python 3.10, the oldest
version pyproject.toml's requires-python admits, and reads every name
it imports."""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted(ROOT.glob("src/fuchsian/*.py")) + sorted(ROOT.glob("tests/*.py"))


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
