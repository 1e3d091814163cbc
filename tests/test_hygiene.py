"""Source hygiene: every name a module imports is used in that module, and
every module-level function or class is used somewhere.

`__init__.py` is left out of the import gate: its imports are the
package's public names, which the definition gate counts as used.
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


_DEFS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _used_names(node: ast.AST) -> set[str]:
    """Names and attribute names that a node refers to, annotations included."""
    used = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            used.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            used.add(sub.attr)
        elif isinstance(sub, (ast.arg, ast.AnnAssign)) and sub.annotation:
            used |= _annotation_names(sub.annotation)
        elif isinstance(sub, (ast.FunctionDef, ast.AsyncFunctionDef)) and sub.returns:
            used |= _annotation_names(sub.returns)
    return used


def dead_definitions(sources: dict[str, str], init_source: str) -> list[str]:
    """Module-level functions and classes of `sources` (module name ->
    source) that `init_source` does not import and that no module refers
    to outside their own definition."""
    exported = {alias.asname or alias.name for node in ast.parse(init_source).body
                if isinstance(node, ast.ImportFrom) for alias in node.names}
    defined = {}
    used = set()
    for module, source in sorted(sources.items()):
        for node in ast.parse(source).body:
            own = node.name if isinstance(node, _DEFS) else None
            if own:
                defined[own] = "%s.%s (line %d)" % (module, own, node.lineno)
            used |= _used_names(node) - {own}
    return sorted(label for name, label in defined.items()
                  if name not in exported and name not in used)


def test_gate_finds_a_dead_definition():
    sources = {"a": "def api():\n    return helper()\n\n"
                    "def helper():\n    return helper\n\n"
                    "def dead():\n    return dead()\n",
               "b": "class Used:\n    pass\n\nx: 'Used' = None\n"}
    assert dead_definitions(sources, "from .a import api\n") == ["a.dead (line 7)"]


def test_no_dead_definitions():
    sources = {p.stem: p.read_text() for p in MODULES}
    assert dead_definitions(sources, (SRC / "__init__.py").read_text()) == []
