"""The package imports nothing that ``pyproject.toml`` does not declare,
and nothing that it does not use.

Every absolute import in ``src/divbatch/*.py`` must name a standard
library module or a distribution listed in ``[project].dependencies``, so
an install from the project metadata alone can import the package.  Every
name a module imports must be used in it, be listed in its ``__all__``,
or sit on an import marked ``# noqa: F401`` (a name kept as a module
attribute for others to patch or wrap).  Importing the package, or running
a command of its CLI, loads no process pool.  Every parameter of a function
in those files is read by its body.  Only ``_check_int`` words the "must be
an int" refusal: every count, size and seed check goes through it.  Every
module-level function and class is read somewhere in those files or listed
in an ``__all__``.
"""

from __future__ import annotations

import ast
import os
import re
import subprocess
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


def unused_imports(source: Path) -> list[str]:
    """Names ``source`` imports but neither reads, exports nor marks ``# noqa: F401``."""
    text = source.read_text()
    lines = text.splitlines()
    tree = ast.parse(text, filename=str(source))
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            marked = any("# noqa: F401" in line for line in lines[node.lineno - 1 : node.end_lineno])
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                if name != "*" and not marked:
                    imported[name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        targets = node.targets if isinstance(node, ast.Assign) else []
        if any(isinstance(t, ast.Name) and t.id == "__all__" for t in targets):
            if isinstance(node.value, (ast.List, ast.Tuple)):
                used.update(elt.value for elt in node.value.elts)
    return sorted(f"{name} (line {line})" for name, line in imported.items() if name not in used)


@pytest.mark.parametrize("source", SOURCES, ids=lambda p: p.name)
def test_every_imported_name_is_used_exported_or_marked(source):
    assert unused_imports(source) == []


def test_the_unused_import_guard_flags_a_dead_import(tmp_path):
    source = tmp_path / "mod.py"
    source.write_text(
        "import math\n"
        "import json  # noqa: F401\n"
        "from os import path, sep\n"
        "from re import compile as rx\n"
        "__all__ = ['sep']\n"
        "print(rx)\n"
    )
    assert unused_imports(source) == ["math (line 1)", "path (line 3)"]


def unread_parameters(source: Path) -> list[str]:
    """Parameters of a function or lambda in ``source`` that its body never reads.

    ``self``, ``cls`` and ``_`` (a parameter a caller's protocol requires)
    are exempt; a read in a nested function counts.
    """
    tree = ast.parse(source.read_text(), filename=str(source))
    dead = []
    for node in ast.walk(tree):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        args = node.args
        names = [a.arg for a in (*args.posonlyargs, *args.args, *args.kwonlyargs)]
        names += [a.arg for a in (args.vararg, args.kwarg) if a is not None]
        body = node.body if isinstance(node.body, list) else [node.body]
        read = {
            n.id
            for statement in body
            for n in ast.walk(statement)
            if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)
        }
        name = getattr(node, "name", "<lambda>")
        dead += [
            f"{name}({arg}) (line {node.lineno})"
            for arg in names
            if arg not in read and arg not in ("self", "cls", "_")
        ]
    return sorted(dead)


@pytest.mark.parametrize("source", SOURCES, ids=lambda p: p.name)
def test_every_parameter_is_read(source):
    assert unread_parameters(source) == []


def test_the_unread_parameter_guard_flags_a_dead_parameter(tmp_path):
    source = tmp_path / "mod.py"
    source.write_text(
        "class C:\n"
        "    def method(self, x, unused):\n"
        "        return x\n"
        "    @classmethod\n"
        "    def build(cls, *args, **kwargs):\n"
        "        return cls(*args)\n"
        "def outer(a, b, *, c, _):\n"
        "    b = 1\n"
        "    def inner():\n"
        "        return a\n"
        "    return inner\n"
        "square = lambda v, w: v * v\n"
    )
    assert unread_parameters(source) == [
        "<lambda>(w) (line 12)",
        "build(kwargs) (line 5)",
        "method(unused) (line 2)",
        "outer(b) (line 7)",
        "outer(c) (line 7)",
    ]


def hand_written_int_checks(source: Path) -> list[int]:
    """Lines of ``source`` whose ``raise`` words "must be an int" outside ``_check_int``."""
    tree = ast.parse(source.read_text(), filename=str(source))
    helper = {
        id(node)
        for function in ast.walk(tree)
        if isinstance(function, ast.FunctionDef) and function.name == "_check_int"
        for node in ast.walk(function)
    }
    return sorted(
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, ast.Raise)
        and id(node) not in helper
        and any(
            isinstance(n, ast.Constant) and isinstance(n.value, str) and "must be an int" in n.value
            for n in ast.walk(node)
        )
    )


@pytest.mark.parametrize("source", SOURCES, ids=lambda p: p.name)
def test_only_the_int_rule_words_its_refusal(source):
    assert hand_written_int_checks(source) == []


def test_the_int_rule_guard_flags_a_hand_written_check(tmp_path):
    source = tmp_path / "mod.py"
    source.write_text(
        "def _check_int(name, value, low=None, error=ValueError):\n"
        "    if not isinstance(value, int):\n"
        "        raise error(f'{name} must be an int, got {value!r}')\n"
        "def check(k, seed):\n"
        "    if not isinstance(k, int):\n"
        "        raise ValueError(f'k must be an int, got {k!r}')\n"
        "    if seed < 0:\n"
        "        raise ValueError('seed must be an int >= 0')\n"
        "    if k < 1:\n"
        "        raise ValueError(f'k must be >= 1, got {k}')\n"
    )
    assert hand_written_int_checks(source) == [6, 8]


def test_importing_the_package_loads_no_process_pool():
    # a fresh interpreter: pytest's own process may hold these modules
    # already.  The pool is imported only by a grid run with workers > 1.
    code = (
        "import sys, divbatch, divbatch.cli\n"
        "divbatch.cli.main(['functions'])\n"
        "print(sorted(m for m in ('multiprocessing', 'concurrent.futures') if m in sys.modules))\n"
    )
    paths = (str(ROOT / "src"), os.environ.get("PYTHONPATH"))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in paths if p))
    done = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[-1] == "[]"


# perfbench's traced pass wraps it by name (ROADMAP item 1)
UNREFERENCED_ALLOWED = {"cascade._clear_of"}


def unreferenced_definitions(sources: list[Path]) -> list[str]:
    """Module-level functions and classes of ``sources`` that no source reads or exports.

    A read is a name or an attribute of that name anywhere in the sources,
    outside the definition's own body; an export is an entry of an ``__all__``.
    """
    defined, referenced = [], set()
    for source in sources:
        tree = ast.parse(source.read_text(), filename=str(source))
        for node in tree.body:
            own = getattr(node, "name", None)
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                defined.append((source.stem, own, node.lineno))
            for n in ast.walk(node):
                if isinstance(n, ast.Name) and n.id != own:
                    referenced.add(n.id)
                elif isinstance(n, ast.Attribute) and n.attr != own:
                    referenced.add(n.attr)
            targets = node.targets if isinstance(node, ast.Assign) else []
            if any(isinstance(t, ast.Name) and t.id == "__all__" for t in targets):
                referenced.update(e.value for e in getattr(node.value, "elts", []))
    return [
        f"{module}.{name} (line {line})"
        for module, name, line in defined
        if name not in referenced and f"{module}.{name}" not in UNREFERENCED_ALLOWED
    ]


def test_every_definition_is_referenced_or_exported():
    assert unreferenced_definitions(SOURCES) == []


def test_the_unreferenced_definition_guard_flags_a_dead_definition(tmp_path):
    first, second = tmp_path / "first.py", tmp_path / "second.py"
    first.write_text(
        "__all__ = ['Public']\n"
        "class Public:\n"
        "    pass\n"
        "def _helper():\n"
        "    return 1\n"
        "def _recursive(n):\n"
        "    return _recursive(n - 1)\n"
        "class _Dead:\n"
        "    pass\n"
    )
    second.write_text(
        "from . import first\n"
        "def _used_elsewhere():\n"
        "    return 2\n"
        "def main():\n"
        "    return first._helper() + _used_elsewhere()\n"
        "__all__ = ['main']\n"
    )
    assert unreferenced_definitions([first, second]) == [
        "first._recursive (line 6)",
        "first._Dead (line 8)",
    ]
