"""semirad needs numpy alone, and its modules share public names only."""

import ast
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"
SOURCES = sorted((SRC / "semirad").glob("*.py"))


def test_import_loads_no_scipy():
    # a fresh interpreter, so that no other test's imports count
    code = (
        "import sys, semirad, semirad.cli; "
        "print(sorted(m for m in sys.modules if m.partition('.')[0] == 'scipy'))"
    )
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == "[]"


def test_no_module_imports_a_private_name_of_another():
    # ``from .<module> import _<name>`` (or ``from semirad.<module> ...``)
    # anywhere in the package, with no allow-list
    found = []
    for source in SOURCES:
        tree = ast.parse(source.read_text(encoding="utf-8"), filename=source.name)
        for node in ast.walk(tree):
            if not isinstance(node, ast.ImportFrom):
                continue
            if node.level == 0 and (node.module or "").partition(".")[0] != "semirad":
                continue
            found += [
                f"{source.name}:{node.lineno} {alias.name}"
                for alias in node.names
                if alias.name.startswith("_")
            ]
    assert found == []
