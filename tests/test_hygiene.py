"""Source hygiene: every name a module imports is used in that module.

`__init__.py` is left out: its imports are the package's public names.
"""
import ast
import pathlib

import pytest

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "flagkneser"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")


def _annotation_names(node: ast.AST) -> set[str]:
    """Names in an annotation, string annotations included."""
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        node = ast.parse(node.value, mode="eval")
    return {n.id for n in ast.walk(node) if isinstance(n, ast.Name)}


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = {}
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, (ast.arg, ast.AnnAssign)) and node.annotation:
            used |= _annotation_names(node.annotation)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.returns:
            used |= _annotation_names(node.returns)
    return ["%s (line %d)" % (name, line)
            for name, line in sorted(imported.items()) if name not in used]


def test_gate_finds_an_unused_import():
    source = "from typing import Iterable, Sequence\nx: Sequence = ()\n"
    assert unused_imports(source) == ["Iterable (line 1)"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []
