"""The package imports nothing that ``pyproject.toml`` does not declare.

Every absolute import in ``src/divbatch/*.py`` must name a standard
library module or a distribution listed in ``[project].dependencies``, so
an install from the project metadata alone can import the package.
"""

from __future__ import annotations

import ast
import re
import sys
from pathlib import Path

import pytest

tomllib = pytest.importorskip("tomllib")

ROOT = Path(__file__).resolve().parents[1]
SOURCES = sorted((ROOT / "src" / "divbatch").glob("*.py"))


def declared_dependencies() -> set[str]:
    """Names of the ``[project].dependencies`` distributions, as import names."""
    project = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]
    names = (re.match(r"[A-Za-z0-9_.-]+", spec).group() for spec in project["dependencies"])
    return {name.lower().replace("-", "_") for name in names}


def imported_packages(source: Path) -> set[str]:
    """The top-level package of every absolute import in ``source``."""
    packages = set()
    for node in ast.walk(ast.parse(source.read_text(), filename=str(source))):
        if isinstance(node, ast.Import):
            packages.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            packages.add(node.module.split(".")[0])
    return packages


def test_the_sources_are_found():
    assert ROOT / "src" / "divbatch" / "trajectory.py" in SOURCES


@pytest.mark.parametrize("source", SOURCES, ids=lambda p: p.name)
def test_every_import_is_stdlib_or_declared(source):
    allowed = set(sys.stdlib_module_names) | declared_dependencies()
    assert sorted(imported_packages(source) - allowed) == []
