"""The package's declared dependencies cover what its modules import."""

import ast
import pathlib
import re
import sys

import pytest

tomllib = pytest.importorskip("tomllib")  # standard library from Python 3.11

ROOT = pathlib.Path(__file__).resolve().parent.parent


def imported_top_level_names(package: pathlib.Path) -> set[str]:
    """The first component of every absolute import in the package's modules."""
    names = set()
    for source in package.glob("*.py"):
        for node in ast.walk(ast.parse(source.read_text(), str(source))):
            if isinstance(node, ast.Import):
                names.update(alias.name.split(".")[0] for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names.add(node.module.split(".")[0])
    return names


def test_every_third_party_import_is_a_declared_dependency():
    project = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]
    declared = {re.split(r"[\s<>=!~;\[]", spec, maxsplit=1)[0] for spec in project["dependencies"]}
    imported = imported_top_level_names(ROOT / "src" / "purifykit")
    third_party = imported - set(sys.stdlib_module_names) - {"purifykit"}
    assert "numpy" in third_party  # the walk sees the package's imports
    assert third_party <= declared, sorted(third_party - declared)
