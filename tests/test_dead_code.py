"""Every public function, method, module-level class and module-level
assigned name of the package is used: named in the package, in the
benchmark harness (``perfbench/`` without its tests) or, as ``module.name``
in README.md's inline code, declared library API.  A mention in a test alone
keeps nothing in the package.  A module-level function is kept only by a
mention that can name it: ``module.name`` on an imported package module, a
from-import out of its module, or a bare name in its own module; a method or
attribute of the same name elsewhere does not keep it."""

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


def _module_of(node: ast.ImportFrom, package: str) -> str | None:
    """The package module a from-import reads, '' for the package itself, else None."""
    name = node.module or ""
    if node.level:
        return name.rsplit(".", 1)[-1]
    if name == package or name.startswith(package + "."):
        return name[len(package) + 1:].rsplit(".", 1)[-1]
    return None


def _function_mentions(tree: ast.Module, own: str | None, package: str, modules: set):
    """(node, (module, name)) of each mention in a file that can name a module-level
    function: ``module.name`` on a package module bound in the file, a from-import
    out of a package module, and a bare name in the package module ``own``."""
    bound = {}   # local name -> the package module it is bound to
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and _module_of(node, package) == "":
            bound.update({a.asname or a.name: a.name for a in node.names if a.name in modules})
        elif isinstance(node, ast.Import):
            for a in node.names:
                head, _, module = a.name.partition(".")
                if head == package and module in modules and a.asname:
                    bound[a.asname] = module
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and _module_of(node, package) in modules:
            for a in node.names:
                yield a, (_module_of(node, package), a.name)
        elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
            if node.value.id in bound:
                yield node, (bound[node.value.id], node.attr)
        elif isinstance(node, ast.Name) and own is not None:
            yield node, (own, node.id)


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
    declared_functions = {(module, attr) for span in inline_code((root / "README.md").read_text())
                          for module, attr in module_attributes(span) if module in modules}
    declared = {attr for _, attr in declared_functions}
    mentioned = {}   # name, or (module, name) of a module-level function -> ids of the nodes
    for path, tree in trees.items():
        own = path.stem if path.parent == package_dir else None
        for node in ast.walk(tree):
            for name in _mentions(node):
                mentioned.setdefault(name, set()).add(id(node))
        for node, key in _function_mentions(tree, own, package, modules):
            mentioned.setdefault(key, set()).add(id(node))
    found = []
    for path, tree in trees.items():
        if path.parent != package_dir:
            continue
        for name, definition in _definitions(tree):
            key, api = name, declared
            if isinstance(definition, ast.FunctionDef) and definition in tree.body:
                key, api = (path.stem, name), declared_functions
            if not name.startswith("_") and key not in api:
                inside = {id(node) for node in ast.walk(definition)}
                if not mentioned.get(key, set()) - inside:
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


def test_a_function_named_only_by_a_namesake_is_flagged(tmp_path):
    # negative control on a synthetic checkout: ``plane.scale`` shares its name
    # with an attribute read in solid.py and a bare name in the benchmark, and
    # neither can name it; a from-import (``perimeter``, ``square``),
    # ``plane.area`` on the imported module, and a bare call inside plane.py
    # (``side``) each keep their function
    for name, text in {
        "src/shapes/__init__.py": "",
        "src/shapes/plane.py": ("def scale(x):\n    return x\n\n\ndef area(r):\n    return r * r\n"
                                "\n\ndef perimeter(r):\n    return 4 * r\n\n\ndef side(r):\n"
                                "    return r\n\n\ndef square(r):\n    return side(r) ** 2\n"),
        "src/shapes/solid.py": ("from . import plane\nfrom .plane import perimeter\n\n"
                                "SIZE = plane.area(2) + perimeter(1)\n\n\n"
                                "def _grown(shape):\n    return shape.scale\n"),
        "perfbench/run.py": ("from shapes.plane import square\nfrom shapes.solid import SIZE\n\n"
                             "scale = square(SIZE)\n"),
        "README.md": "Shapes grow by `scale`.\n",
    }.items():
        (tmp_path / name).parent.mkdir(parents=True, exist_ok=True)
        (tmp_path / name).write_text(text)
    assert unused(tmp_path, "shapes") == ["plane.py:1 scale"]
