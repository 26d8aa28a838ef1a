"""Every module of the package and of the test suite uses every name it
imports.  The package's `__init__.py` is left out: its imports are the
public re-exports.  The package imports nothing outside the standard library
(networkx and scipy serve only as test-side cross-checks)."""

import ast
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
MODULES = sorted(p for p in (ROOT / "src" / "partite_packing").glob("*.py")
                 if p.name != "__init__.py") + sorted((ROOT / "tests").glob("*.py"))


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported: dict[str, int] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"line {line}: {name}" for name, line in sorted(imported.items())
            if name not in used]


def test_unused_imports_are_found():
    source = ("from math import ceil, floor\nimport os.path\nimport json\n"
              "print(floor(2.5), os.path.sep)\n")
    assert unused_imports(source) == ["line 1: ceil", "line 3: json"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: str(p.relative_to(ROOT)))
def test_every_import_is_used(path):
    assert unused_imports(path.read_text()) == []


def absolute_imports(source: str) -> set[str]:
    """Top-level names of the modules that `source` imports absolutely."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.add(node.module.split(".")[0])
    return names


def test_absolute_imports_are_found():
    source = ("import os.path, json\nfrom networkx.algorithms import x\n"
              "from .graphs import y\nfrom . import z\n")
    assert absolute_imports(source) == {"os", "json", "networkx"}


@pytest.mark.parametrize(
    "path", sorted((ROOT / "src" / "partite_packing").glob("*.py")),
    ids=lambda p: str(p.relative_to(ROOT)))
def test_package_imports_only_the_standard_library(path):
    outside = absolute_imports(path.read_text()) - sys.stdlib_module_names
    assert outside == set()
