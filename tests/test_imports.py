"""The package imports only the standard library, numpy and itself, and
parses as the oldest Python it declares.

scipy and the test tools may be installed next to mmwpl, but a module
that imported them would not run where only the declared dependency,
numpy, is present. pyproject.toml declares requires-python >= 3.10, so no
module may use syntax a 3.10 parser rejects.
"""

import ast
import sys
from pathlib import Path

import pytest

SOURCES = sorted((Path(__file__).parent.parent / "src" / "mmwpl").glob("*.py"))
ALLOWED = set(sys.stdlib_module_names) | {"numpy", "mmwpl"}


def imported_roots(path):
    """The top-level package of every absolute import in a source file."""
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            yield from (alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module.split(".")[0]


def test_sources_are_found():
    assert {p.name for p in SOURCES} >= {"__init__.py", "cli.py", "taxonomy.py"}


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_imports_only_stdlib_numpy_and_mmwpl(path):
    assert sorted(set(imported_roots(path)) - ALLOWED) == []


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_parses_with_the_oldest_declared_python(path):
    ast.parse(path.read_text(encoding="utf-8"), filename=str(path), feature_version=(3, 10))
