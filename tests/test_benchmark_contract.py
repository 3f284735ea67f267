"""The functions the benchmark's tracer wraps must exist in the package.

``perfbench/tracer.py`` names every function it times as a (module,
attribute) pair, and a traced benchmark run fails when one of them is
missing. This test reads that table, without importing the benchmark
package, so a rename in the library shows up here first.
"""

import importlib
import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


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
