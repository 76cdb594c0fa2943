"""Every module in ``src/`` and ``tests/`` uses each name it imports.

A name counts as used when it is read anywhere in the module, as a bare
name or as the root of an attribute chain. Imports marked
``# noqa: F401`` are re-exports and are exempt.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
MODULES = sorted(p for d in ("src", "tests") for p in (ROOT / d).rglob("*.py"))


def unused_imports(source):
    """(line, name) of every imported name that the module never reads."""
    tree = ast.parse(source)
    lines = source.splitlines()
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if "noqa: F401" in lines[node.lineno - 1]:
                continue
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported.setdefault(name, node.lineno)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in imported.items()
                  if name not in used)


@pytest.mark.parametrize("path", MODULES,
                         ids=[str(p.relative_to(ROOT)) for p in MODULES])
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def test_checker_finds_unused_names():
    source = ("import os\nimport numpy as np\nfrom a.b import c, d\n"
              "from . import e  # noqa: F401\nnp.zeros(1)\nprint(d)\n")
    assert unused_imports(source) == [(1, "os"), (3, "c")]
