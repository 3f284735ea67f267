"""The package's declared dependencies cover what its modules import, and
with the test extra what the tests and scripts import."""

import ast
import pathlib
import re
import sys

import pytest

tomllib = pytest.importorskip("tomllib")  # standard library from Python 3.11

ROOT = pathlib.Path(__file__).resolve().parent.parent


def imported_top_level_names(directory: pathlib.Path) -> set[str]:
    """The first component of every absolute import in the directory's modules."""
    names = set()
    for source in directory.glob("*.py"):
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


def test_every_third_party_import_of_the_tests_and_scripts_is_declared_for_testing():
    project = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]
    specs = project["dependencies"] + project["optional-dependencies"]["test"]
    declared = {re.split(r"[\s<>=!~;\[]", spec, maxsplit=1)[0] for spec in specs}
    directories = (ROOT / "tests", ROOT / "scripts")
    # the oracles beside the tests and the scripts themselves are imported by name
    local = {source.stem for directory in directories for source in directory.glob("*.py")}
    imported = set().union(*map(imported_top_level_names, directories))
    third_party = imported - set(sys.stdlib_module_names) - {"purifykit"} - local
    assert {"numpy", "pytest", "hypothesis"} <= third_party  # the walk sees the imports
    assert third_party <= declared, sorted(third_party - declared)
