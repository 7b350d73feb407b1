"""The names README.md gives in inline code exist in the package."""

import importlib
import re
from pathlib import Path

import ncgalois

README = Path(__file__).resolve().parents[1] / "README.md"
MODULES = {p.stem for p in Path(ncgalois.__file__).parent.glob("*.py")} - {"__init__"}


def _inline_code() -> list:
    text = re.sub(r"```.*?```", "", README.read_text(), flags=re.S)
    return re.findall(r"`([^`\n]+)`", text)


def test_readme_names_only_modules_and_attributes_that_exist():
    imported, resolved, missing = set(), set(), []
    for span in _inline_code():
        for name in re.findall(r"\bncgalois\.(\w+)", span):
            importlib.import_module(f"ncgalois.{name}")
            imported.add(name)
        for module, attr in re.findall(r"(?<![\w.])(\w+)\.(\w+)", span):
            if module in MODULES:
                if not hasattr(importlib.import_module(f"ncgalois.{module}"), attr):
                    missing.append(f"{module}.{attr}")
                resolved.add(f"{module}.{attr}")
    assert imported and resolved
    assert missing == []
