"""Every public function and method of the package is used: named in the
package, in the benchmark harness (``perfbench/`` without its tests) or, as
``module.name`` in README.md's inline code, declared library API.  A mention
in a test alone keeps nothing in the package."""

import ast
from pathlib import Path

from test_readme import inline_code, module_attributes

ROOT = Path(__file__).resolve().parents[1]


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


def unused(root: Path, package: str) -> list:
    """``file:line name`` of each public function or method of ``root/src/<package>``
    that nothing names outside its own definition.

    The sources read are ``root/src`` and ``root/perfbench`` outside
    ``perfbench/tests``; ``root/README.md`` declares a name by giving it as
    ``module.name`` in inline code, with ``module`` one of the package's modules.
    """
    package_dir = root / "src" / package
    bench = root / "perfbench"
    paths = [*sorted((root / "src").rglob("*.py")),
             *(p for p in sorted(bench.rglob("*.py")) if bench / "tests" not in p.parents)]
    trees = {path: ast.parse(path.read_text(), filename=str(path)) for path in paths}
    modules = {path.stem for path in package_dir.glob("*.py")}
    declared = {attr for span in inline_code((root / "README.md").read_text())
                for module, attr in module_attributes(span) if module in modules}
    mentioned = {}   # name -> ids of the nodes that mention it
    for tree in trees.values():
        for node in ast.walk(tree):
            for name in _mentions(node):
                mentioned.setdefault(name, set()).add(id(node))
    found = []
    for path, tree in trees.items():
        if path.parent != package_dir:
            continue
        for fn in ast.walk(tree):
            if (isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
                    and not fn.name.startswith("_") and fn.name not in declared):
                inside = {id(node) for node in ast.walk(fn)}
                if not mentioned.get(fn.name, set()) - inside:
                    found.append(f"{path.name}:{fn.lineno} {fn.name}")
    return found


def test_every_public_function_is_named_outside_its_definition():
    assert unused(ROOT, "ncgalois") == []


def test_a_function_only_tests_name_is_flagged_until_the_readme_declares_it(tmp_path):
    # negative control on a synthetic checkout: ``area`` is called by a test
    # and by the benchmark's tests, which keep nothing
    for name, text in {
        "src/shapes/__init__.py": "",
        "src/shapes/plane.py": "def area(r):\n    return r * r\n\n\ndef used():\n    return 1\n",
        "src/shapes/solid.py": "from .plane import used\n",
        "tests/test_plane.py": "from shapes.plane import area\n\nassert area(2) == 4\n",
        "perfbench/tests/test_bench.py": "from shapes import plane\n\nplane.area(3)\n",
        "perfbench/run.py": "import shapes\n",
        "README.md": "Squares go through `area`.\n",
    }.items():
        (tmp_path / name).parent.mkdir(parents=True, exist_ok=True)
        (tmp_path / name).write_text(text)
    assert unused(tmp_path, "shapes") == ["plane.py:1 area"]
    (tmp_path / "README.md").write_text("Squares go through `plane.area`.\n")
    assert unused(tmp_path, "shapes") == []
