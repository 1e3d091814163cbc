"""Source hygiene: every name a module imports is used in that module,
every module-level function or class is used somewhere, and every
function the bench harness traces still exists.

`__init__.py` is left out of the import gate: its imports are the
package's public names, which the definition gate counts as used.
"""
import ast
import importlib
import pathlib

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "flagkneser"
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


def traced_targets(source: str) -> list[tuple[str, str]]:
    """(owner, attr) of every Target(owner, attr, ...) call in a source; an
    owner is a module or module:Class.  A call whose two leading arguments
    are not string literals is an error, so none is skipped unread."""
    out = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "Target":
            head = node.args[:2]
            if len(head) != 2 or not all(isinstance(a, ast.Constant)
                                         and isinstance(a.value, str) for a in head):
                raise ValueError("line %d: Target without literal owner and attr"
                                 % node.lineno)
            out.append((head[0].value, head[1].value))
    return out


def unresolved_targets(targets: list[tuple[str, str]]) -> list[str]:
    """The targets whose module, class or attribute does not exist."""
    missing = []
    for owner, attr in targets:
        module, _, cls = owner.partition(":")
        try:
            holder = importlib.import_module(module)
            if cls:
                holder = getattr(holder, cls)
            getattr(holder, attr)
        except (ImportError, AttributeError):
            missing.append("%s.%s" % (owner, attr))
    return missing


def test_gate_finds_an_unresolved_target():
    source = ('Target("flagkneser.linalg", "rref", "linalg.rref")\n'
              'Target("flagkneser.linalg", "superset", "linalg.superset")\n'
              'Target("flagkneser.flags:FlagUniverse", "no_such", "x")\n')
    assert unresolved_targets(traced_targets(source)) == [
        "flagkneser.linalg.superset", "flagkneser.flags:FlagUniverse.no_such"]
    with pytest.raises(ValueError, match="line 1"):
        traced_targets("Target(OWNER, 'attr', 'name')\n")


def test_bench_targets_resolve():
    # a deletion in src/ must not silently break `bench/run.py --trace 1`
    targets = traced_targets((ROOT / "bench" / "workloads.py").read_text())
    assert len(targets) == 35
    assert unresolved_targets(targets) == []
