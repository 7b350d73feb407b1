"""Every public function and method of the package is used somewhere."""

import ast
from pathlib import Path

import ncgalois

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = Path(ncgalois.__file__).parent


def _trees(*dirs: Path) -> dict:
    return {path: ast.parse(path.read_text(), filename=str(path))
            for d in dirs for path in sorted(d.rglob("*.py"))}


def _mentions(node: ast.AST):
    """The names a node refers to: a Name, an Attribute or an import alias."""
    if isinstance(node, ast.Name):
        yield node.id
    elif isinstance(node, ast.Attribute):
        yield node.attr
    elif isinstance(node, ast.alias):
        yield node.name.rsplit(".", 1)[-1]
        if node.asname:
            yield node.asname


def test_every_public_function_is_named_outside_its_definition():
    trees = _trees(ROOT / "src", ROOT / "tests", ROOT / "perfbench")
    mentioned = {}   # name -> ids of the nodes that mention it
    for tree in trees.values():
        for node in ast.walk(tree):
            for name in _mentions(node):
                mentioned.setdefault(name, set()).add(id(node))
    unused = []
    for path, tree in trees.items():
        if path.parent != PACKAGE:
            continue
        for fn in ast.walk(tree):
            if (isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
                    and not fn.name.startswith("_")):
                inside = {id(node) for node in ast.walk(fn)}
                if not mentioned.get(fn.name, set()) - inside:
                    unused.append(f"{path.name}:{fn.lineno} {fn.name}")
    assert unused == []
