"""README.md: the names it gives in inline code exist in the package, and its
example session runs."""

import importlib
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import ncgalois

README = Path(__file__).resolve().parents[1] / "README.md"
MODULES = {p.stem for p in Path(ncgalois.__file__).parent.glob("*.py")} - {"__init__"}


def inline_code(text: str) -> list:
    """The inline code spans of a markdown text, fenced blocks left out."""
    text = re.sub(r"```.*?```", "", text, flags=re.S)
    return re.findall(r"`([^`\n]+)`", text)


def module_attributes(span: str) -> list:
    """Each ``module.attr`` of a code span, as (module, attr)."""
    return re.findall(r"(?<![\w.])(\w+)\.(\w+)", span)


def test_readme_names_only_modules_and_attributes_that_exist():
    imported, resolved, missing = set(), set(), []
    for span in inline_code(README.read_text()):
        for name in re.findall(r"\bncgalois\.(\w+)", span):
            importlib.import_module(f"ncgalois.{name}")
            imported.add(name)
        for module, attr in module_attributes(span):
            if module in MODULES:
                if not hasattr(importlib.import_module(f"ncgalois.{module}"), attr):
                    missing.append(f"{module}.{attr}")
                resolved.add(f"{module}.{attr}")
    assert imported and resolved
    assert missing == []


def test_the_example_session_runs(tmp_path):
    # the fenced example: its Python block, then its command line with the
    # ``ncgalois`` script spelled ``python -m ncgalois.cli``
    block = re.search(r"Example session:\s*```bash\n(.*?)```", README.read_text(), re.S)[1]
    script, command = re.fullmatch(r"python - <<'PY'\n(.*\n)PY\nncgalois (.*)\n", block,
                                   re.S).groups()
    src = str(Path(ncgalois.__file__).parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    subprocess.run([sys.executable, "-"], input=script, text=True, cwd=tmp_path, env=env,
                   check=True)
    args = command.split()
    proc = subprocess.run([sys.executable, "-m", "ncgalois.cli", *args], cwd=tmp_path,
                          env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    report = json.loads((tmp_path / args[args.index("--out") + 1]).read_text())["report"]
    # S3 regular: (M^G)' cap M is the span of the six left translations
    assert report["minimal_action_witness_dim"] == 6
    assert report["injective"]
