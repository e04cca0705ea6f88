import ast
import importlib
import re
import sys
from pathlib import Path

import pytest

tomllib = pytest.importorskip("tomllib")  # standard library from Python 3.11

ROOT = Path(__file__).resolve().parents[1]
PYPROJECT = ROOT / "pyproject.toml"


def test_every_script_entry_point_imports():
    """Each `module:attr` under [project.scripts] names a callable that imports,
    so an installed command cannot fail at start-up on a missing module."""
    scripts = tomllib.loads(PYPROJECT.read_text())["project"].get("scripts", {})
    for name, target in scripts.items():
        module, _, attr = target.partition(":")
        assert callable(getattr(importlib.import_module(module), attr)), name


def imported_modules(path: Path) -> set:
    """Top-level names of the absolute imports in one Python file."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            names.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.add(node.module.split(".")[0])
    return names


def test_every_test_import_is_declared():
    """A module the tests import that is neither stdlib nor first-party is
    declared in `dependencies` or the `dev` extra, so an environment built
    from `.[dev]` can collect the suite."""
    project = tomllib.loads(PYPROJECT.read_text())["project"]
    requirements = project["dependencies"] + project["optional-dependencies"]["dev"]
    declared = {re.match(r"[A-Za-z0-9_.-]+", r).group(0).lower() for r in requirements}
    first_party = {p.stem for p in (ROOT / "tests").glob("*.py")}
    first_party |= {p.name for p in (ROOT / "src").iterdir() if p.is_dir()}
    imported = set().union(*map(imported_modules, (ROOT / "tests").glob("*.py")))
    third_party = imported - set(sys.stdlib_module_names) - first_party
    assert third_party, "no third-party import found: the scan is broken"
    assert third_party <= declared, sorted(third_party - declared)
