"""The names the benchmark and the scripts use must exist in the package.

``perfbench/tracer.py`` names every function it times as a (module,
attribute) pair, and a traced benchmark run fails when one of them is
missing. The benchmark's workloads, its own tests, the showcase script
and the README read other names from the package root. These tests read
those sources as text, without importing the benchmark package, so a
rename or a trimmed root export shows up here first: tier-1 does not run
``perfbench/``. The shapes of the results the benchmark reads are pinned
here too.
"""

import ast
import importlib
import importlib.util
import re
from pathlib import Path

import numpy as np

import purifykit
from purifykit.purification import measure_reference

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


def test_steering_outcomes_read_as_records_in_index_order():
    # SteerWide.check collects o.index, o.probability and o.post_state over
    # the outcomes; the benchmark's negative controls index and slice them
    rho = purifykit.random_density_matrix(5, 3, np.random.default_rng(7))
    target = purifykit.random_equivalent_ensemble(rho, 6, seed=7)
    _, outcomes, _ = purifykit.prepare_ensemble(purifykit.spectral_ensemble(rho), target, dim_k=8)
    assert [o.index for o in outcomes] == list(range(6))
    assert all(type(o.probability) is float for o in outcomes)
    assert np.array([o.post_state for o in outcomes]).shape == (6, 5)
    assert outcomes[0].index == 0
    assert [o.index for o in outcomes[1:]] == list(range(1, 6))


def test_steered_post_states_are_c_contiguous_rows_that_the_records_view():
    # SteerWide.check stacks each record's post_state; they are the rows of
    # one (n, d) C-contiguous array, read with no copy
    rho = purifykit.random_density_matrix(5, 3, np.random.default_rng(7))
    target = purifykit.random_equivalent_ensemble(rho, 6, seed=7)
    _, outcomes, _ = purifykit.prepare_ensemble(purifykit.spectral_ensemble(rho), target, dim_k=8)
    posts = outcomes.post_states
    assert posts.shape == (6, 5) and posts.flags.c_contiguous
    for row, outcome in zip(posts, outcomes):
        assert outcome.post_state.base is posts
        assert np.shares_memory(outcome.post_state, row)
        assert np.array_equal(outcome.post_state, row)


def test_measure_reference_results_have_a_length():
    # the tracer counts kept outcomes with len() of what measure_reference returns
    rho = purifykit.random_density_matrix(5, 3, np.random.default_rng(7))
    psi = purifykit.purify(purifykit.spectral_ensemble(rho), 4)
    assert len(measure_reference(psi, np.eye(4))) == 3
