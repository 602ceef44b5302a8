"""The package imports only the standard library, numpy and itself,
parses as the oldest Python it declares, and opens files only in dataio.

scipy and the test tools may be installed next to mmwpl, but a module
that imported them would not run where only the declared dependency,
numpy, is present. pyproject.toml declares requires-python >= 3.10, so no
module may use syntax a 3.10 parser rejects. dataio alone decides how a
text file is opened (encoding, newline handling, closing), so no other
module calls the builtin open.
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


def builtin_open_calls(path):
    """Line numbers of calls to open, io.open or builtins.open in a source file."""
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Call):
            func = node.func
            if (isinstance(func, ast.Name) and func.id == "open"
                    or isinstance(func, ast.Attribute) and func.attr == "open"
                    and isinstance(func.value, ast.Name) and func.value.id in ("io", "builtins")):
                yield node.lineno


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_only_dataio_opens_files(path):
    calls = list(builtin_open_calls(path))
    if path.name == "dataio.py":
        assert calls  # the check sees dataio's own open
    else:
        assert calls == []


def top_level_names(tree):
    """The names a module's own top-level statements bind."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node.name
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            yield from (n.id for target in targets for n in ast.walk(target)
                        if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Store))


def test_every_private_name_is_used():
    """A private helper whose last reader is gone goes with it: every
    top-level _name a module defines is read, as a name or an attribute,
    somewhere in the package."""
    trees = [ast.parse(path.read_text(encoding="utf-8")) for path in SOURCES]
    defined = {name for tree in trees for name in top_level_names(tree)
               if name.startswith("_") and not (name.startswith("__") and name.endswith("__"))}
    read = set()
    for tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
    assert defined, "the check sees the package's private names"
    assert sorted(defined - read) == []
