"""Every public function, method, module-level class and module-level
assigned name of the package is used: named in the package, in the
benchmark harness (``perfbench/`` without its tests) or, as ``module.name``
in README.md's inline code, declared library API.  A mention in a test alone
keeps nothing in the package."""

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


def _definitions(tree: ast.Module):
    """(name, node) of each function and method of a module, and of each class
    and assigned name at its top level; the node is the whole definition."""
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node.name, node
    for node in tree.body:
        if isinstance(node, ast.ClassDef):
            yield node.name, node
        targets = (node.targets if isinstance(node, ast.Assign)
                   else [node.target] if isinstance(node, ast.AnnAssign) else [])
        for target in targets:
            if isinstance(target, ast.Name):
                yield target.id, node


def unused(root: Path, package: str) -> list:
    """``file:line name`` of each public function, method, module-level class or
    module-level assigned name of ``root/src/<package>`` that nothing names
    outside its own definition.

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
        for name, definition in _definitions(tree):
            if not name.startswith("_") and name not in declared:
                inside = {id(node) for node in ast.walk(definition)}
                if not mentioned.get(name, set()) - inside:
                    found.append(f"{path.name}:{definition.lineno} {name}")
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


def test_a_module_level_constant_and_class_only_tests_name_are_flagged(tmp_path):
    # negative control on a synthetic checkout: ``ORIGIN`` is read only by a
    # test and ``Ray`` only by its own method; ``UNIT`` and ``Segment`` are used in
    # the package, the first through an annotated assignment
    for name, text in {
        "src/shapes/__init__.py": "",
        "src/shapes/plane.py": ("ORIGIN = (0, 0)\nUNIT: float = 1.0\n\n\n"
                                "class Segment:\n    pass\n\n\n"
                                "class Ray:\n    LENGTH = UNIT\n\n    def _turned(self):\n"
                                "        return Ray\n"),
        "src/shapes/solid.py": "from .plane import Segment\n",
        "tests/test_plane.py": "from shapes.plane import ORIGIN\n\nassert ORIGIN == (0, 0)\n",
        "perfbench/run.py": "import shapes\n",
        "README.md": "Points start at `ORIGIN`.\n",
    }.items():
        (tmp_path / name).parent.mkdir(parents=True, exist_ok=True)
        (tmp_path / name).write_text(text)
    assert unused(tmp_path, "shapes") == ["plane.py:1 ORIGIN", "plane.py:9 Ray"]
    (tmp_path / "README.md").write_text("Points start at `plane.ORIGIN`.\n")
    assert unused(tmp_path, "shapes") == ["plane.py:9 Ray"]
