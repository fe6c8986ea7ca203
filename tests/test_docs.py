"""Every code name the docs cite resolves to an attribute of the package."""

import importlib
import re
from pathlib import Path

import pytest

import semirad

ROOT = Path(__file__).resolve().parents[1]
SOURCES = sorted((ROOT / "src" / "semirad").glob("*.py"))
MODULES = sorted(p.stem for p in SOURCES if not p.stem.startswith("_"))
for _module in MODULES:  # so that each is an attribute of the package
    importlib.import_module(f"semirad.{_module}")

# `cells.RTOL`, `scan.branches`, `cells.Cells.evaluate`, ... in the README
README_NAME = re.compile(
    r"`(?:semirad\.)?((?:%s)\.[A-Za-z_][\w.]*)" % "|".join(MODULES)
)
# :func:`refine`, :class:`cells.Cells`, ... in the sources
SPHINX_TARGET = re.compile(r":(?:func|class):`~?([\w.]+)`")


def resolves(name: str, home) -> bool:
    """Whether *name* is an attribute path from the module *home* or from
    the package."""
    name = name.removeprefix("semirad.").rstrip(".")
    for root in (home, semirad):
        obj = root
        for part in name.split("."):
            obj = getattr(obj, part, None)
            if obj is None:
                break
        else:
            return True
    return False


def test_readme_names_resolve():
    names = set(README_NAME.findall((ROOT / "README.md").read_text(encoding="utf-8")))
    assert names
    assert sorted(n for n in names if not resolves(n, semirad)) == []


@pytest.mark.parametrize("source", SOURCES, ids=[p.name for p in SOURCES])
def test_docstring_targets_resolve(source):
    home = semirad if source.stem.startswith("_") else getattr(semirad, source.stem)
    targets = set(SPHINX_TARGET.findall(source.read_text(encoding="utf-8")))
    assert sorted(t for t in targets if not resolves(t, home)) == []
