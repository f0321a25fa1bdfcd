"""The package declares every third-party module its source imports."""

import ast
import re
import sys
from pathlib import Path

import pytest

tomllib = pytest.importorskip("tomllib")

_REPO = Path(__file__).resolve().parents[2]


def _declared_dependencies() -> set[str]:
    project = tomllib.loads((_REPO / "pyproject.toml").read_text())["project"]
    names = (re.match(r"[A-Za-z0-9_.-]+", spec).group(0) for spec in project["dependencies"])
    return {name.lower().replace("-", "_") for name in names}


def _imported_modules(path: Path) -> set[str]:
    modules = set()
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Import):
            modules.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            modules.add(node.module.split(".")[0])
    return modules


def test_every_import_is_stdlib_repro_or_declared():
    allowed = set(sys.stdlib_module_names) | {"repro"} | _declared_dependencies()
    undeclared = {
        f"{path.relative_to(_REPO)}: {module}"
        for path in sorted((_REPO / "src" / "repro").rglob("*.py"))
        for module in _imported_modules(path) - allowed
    }
    assert not undeclared, sorted(undeclared)
