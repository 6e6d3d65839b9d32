"""Tests for the package's public namespace and its module layout."""
import ast
import types
from pathlib import Path

import horogrowth

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "horogrowth"


def test_all_is_sorted_unique_and_complete():
    exported = horogrowth.__all__
    assert exported == sorted(exported)
    assert len(exported) == len(set(exported))
    bound = {
        name
        for name, value in vars(horogrowth).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert set(exported) == bound


def _defined_names(stmt: ast.stmt) -> list[str]:
    """The module-level names a statement defines: a function, a class,
    or the plain names an assignment binds."""
    if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return [stmt.name]
    if isinstance(stmt, ast.Assign):
        targets = stmt.targets
    elif isinstance(stmt, ast.AnnAssign):
        targets = [stmt.target]
    else:
        return []
    return [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]


def _references(tree: ast.Module) -> list[set[str]]:
    """Per top-level statement of a module, the names, attributes and
    identifier strings it reads, docstrings left out."""
    docs = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            first = node.body[0] if node.body else None
            if isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant):
                docs.add(id(first.value))
    out = []
    for stmt in tree.body:
        found = set()
        for node in ast.walk(stmt):
            if isinstance(node, ast.Name):
                found.add(node.id)
            elif isinstance(node, ast.Attribute):
                found.add(node.attr)
            elif (
                isinstance(node, ast.Constant)
                and isinstance(node.value, str)
                and node.value.isidentifier()
                and id(node) not in docs
            ):
                found.add(node.value)
        out.append(found)
    return out


def test_every_module_level_name_in_src_is_used_outside_the_tests():
    # a function, class or constant that only the tests read is a test
    # reference and belongs under tests/; an __init__ re-export is no use
    trees = {
        path: ast.parse(path.read_text(), str(path))
        for folder in ("src", "demos", "perfbench")
        for path in sorted((ROOT / folder).rglob("*.py"))
        if path.name != "__init__.py"
    }
    refs = {path: _references(tree) for path, tree in trees.items()}
    unused = []
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "__init__.py":
            continue
        elsewhere = set().union(*(s for other in refs if other != path for s in refs[other]))
        for i, stmt in enumerate(trees[path].body):
            # a name read only inside its own definition is unused
            used = elsewhere.union(*(s for j, s in enumerate(refs[path]) if j != i))
            unused += [f"{path.stem}.{n}" for n in _defined_names(stmt) if n not in used]
    assert not unused, f"referenced only by the tests: {unused}"
