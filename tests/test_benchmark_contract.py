"""The names the benchmark and the scripts use must exist in the package.

``perfbench/tracer.py`` names every function it times as a (module,
attribute) pair, and a traced benchmark run fails when one of them is
missing. The benchmark's workloads, its own tests, the showcase script
and the README read other names from the package root. These tests read
those sources as text, without importing the benchmark package, so a
rename or a trimmed root export shows up here first: tier-1 does not run
``perfbench/``.
"""

import ast
import importlib
import importlib.util
import re
from pathlib import Path

import purifykit

ROOT = Path(__file__).resolve().parents[1]
TRACER = ROOT / "perfbench" / "tracer.py"


def tracer_targets():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.TARGETS


def test_every_tracer_target_resolves_in_the_package():
    missing = []
    for module_name, attr in tracer_targets():
        module = importlib.import_module(f"purifykit.{module_name}")
        owner_name, _, leaf = attr.rpartition(".")
        # the tracer swaps a method in the class's own namespace, not an inherited one
        namespace = vars(getattr(module, owner_name)) if owner_name else vars(module)
        if not callable(namespace.get(leaf)):
            missing.append(f"{module_name}.{attr}")
    assert missing == []


def showcase_imports():
    tree = ast.parse((ROOT / "scripts" / "steering_showcase.py").read_text())
    return [
        alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.module == "purifykit"
        for alias in node.names
    ]


ROOT_READERS = {
    "perfbench/workloads.py": lambda text: re.findall(r"\bpk\.(\w+)", text),
    # the package-root bindings its tracer test asserts
    "perfbench/test_perfbench.py": lambda text: re.findall(r"\bpurifykit\.(\w+)", text),
    "README.md": lambda text: re.findall(r"\bpk\.(\w+)", text),
}


def test_every_name_read_from_the_package_root_resolves():
    reads = {path: read((ROOT / path).read_text()) for path, read in ROOT_READERS.items()}
    reads["scripts/steering_showcase.py"] = showcase_imports()
    # test_perfbench.py counts three bindings of are_equivalent, one of them the root's
    reads["perfbench/test_perfbench.py"].append("are_equivalent")
    assert all(reads.values())  # each source still reads the root this way
    missing = [
        f"{path}: {name}"
        for path, names in reads.items()
        for name in names
        if not hasattr(purifykit, name)
    ]
    assert missing == []
