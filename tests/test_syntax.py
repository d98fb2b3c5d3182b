"""Every package and test module parses as Python 3.10, the oldest
version pyproject.toml's requires-python admits."""

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
