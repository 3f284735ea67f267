"""Spans around purifykit's public functions, recorded from outside the library.

``Tracer.install`` wraps each function in ``TARGETS`` and puts the wrapper
in place of every binding of the original inside the package: the
defining module, the package namespace, names re-imported with
``from .x import y``, and class attributes for methods and dataclass
validators. Spans (name, start, end, parent, op) are kept in memory and
written out once at the end with ``dump``.

Two modes, switched by the caller: ``timing`` records spans and the
fileio/measurement counters; ``memory`` records, for ``PEAK_SPANS``, the
tracemalloc peak above the allocation level at entry.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import sys
import time
import tracemalloc
from collections import defaultdict
from contextlib import contextmanager

PACKAGE = "purifykit"
ROOT_SPAN = "op"

# (module, attribute). "Class.method" wraps a method; a dataclass
# validator ("Class.__post_init__") is recorded under the class name.
TARGETS = (
    ("numerics", "gram_schmidt_complete"),
    ("numerics", "hermitian_eig"),
    ("numerics", "partial_trace_k"),
    ("ensembles", "spectral_ensemble"),
    ("ensembles", "are_equivalent"),
    ("ensembles", "density_matrix"),
    ("ensembles", "DensityMatrix.__post_init__"),
    ("purification", "purify"),
    ("purification", "steering_coefficients"),
    ("purification", "steering_isometry"),
    ("purification", "measure_reference"),
    ("purification", "prepare_ensemble"),
    ("purification", "SteeringPlan.__post_init__"),
    ("purification", "BipartiteState.reduced_system"),
    ("dynamics", "build_model"),
    ("dynamics", "commutator_max"),
    ("dynamics", "cross_product_max"),
    ("dynamics", "power_identities_check"),
    ("dynamics", "evolution_closed_form"),
    ("dynamics", "evolution_numeric"),
    ("dynamics", "verification_report"),
    ("dynamics", "purify_via_dynamics"),
    ("qubit_gates", "qubit_demo"),
    ("fileio", "read_ensemble"),
    ("fileio", "read_density_matrix"),
    ("fileio", "read_bipartite_state"),
    ("fileio", "read_plan"),
    ("fileio", "write_ensemble"),
    ("fileio", "write_density_matrix"),
    ("fileio", "write_bipartite_state"),
    ("fileio", "write_plan"),
    ("cli", "main"),
)

PEAK_SPANS = frozenset(
    {
        "purification.BipartiteState.reduced_system",
        "numerics.partial_trace_k",
        "dynamics.verification_report",
    }
)


def span_name(module: str, attr: str) -> str:
    owner, _, method = attr.rpartition(".")
    return f"{module}.{owner if method == '__post_init__' else attr}"


def _file_size(args, kwargs) -> int:
    return os.path.getsize(kwargs["path"] if "path" in kwargs else args[0])


def _count_reads(tracer, args, kwargs, result):
    tracer.counts["fileio.bytes_read"] += _file_size(args, kwargs)


def _count_writes(tracer, args, kwargs, result):
    tracer.counts["fileio.bytes_written"] += _file_size(args, kwargs)


def _count_outcomes(tracer, args, kwargs, result):
    psi = kwargs["psi"] if "psi" in kwargs else args[0]
    tracer.counts["purification.outcomes_kept"] += len(result)
    tracer.counts["purification.outcome_slots"] += psi.dim_k


def _hook_for(module: str, attr: str):
    if module == "fileio":
        return _count_reads if attr.startswith("read_") else _count_writes
    if attr == "measure_reference":
        return _count_outcomes
    return None


class Tracer:
    """In-memory span recorder for one process."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index, op]
        self.counts: defaultdict[str, float] = defaultdict(float)
        self.peaks: defaultdict[str, int] = defaultdict(int)
        self.timing = False
        self.memory = False
        self._stack: list[int] = []
        self._peak_stack: list[list[int]] = []  # [level at entry, highest level seen]
        self._op = -1
        self._restore: list[tuple[object, str, object]] = []

    # -- installation -------------------------------------------------

    def install(self) -> dict[str, int]:
        """Wrap every target at every binding; returns bindings per span name."""
        modules = [importlib.import_module(f"{PACKAGE}.{m}") for m, _ in TARGETS]
        package_modules = [importlib.import_module(PACKAGE), *modules] + [
            mod for name, mod in sys.modules.items() if name.startswith(PACKAGE + ".")
        ]
        package_modules = list({id(m): m for m in package_modules}.values())
        bound: dict[str, int] = {}
        for (module_name, attr), module in zip(TARGETS, modules):
            name = span_name(module_name, attr)
            owner_name, _, leaf = attr.rpartition(".")
            if owner_name:
                owner = getattr(module, owner_name)
                original = vars(owner)[leaf]
                self._replace(owner, leaf, self._wrap(name, original, None))
                bound[name] = 1
            else:
                original = getattr(module, leaf)
                wrapper = self._wrap(name, original, _hook_for(module_name, attr))
                bound[name] = 0
                for mod in package_modules:
                    for key, value in list(vars(mod).items()):
                        if value is original:
                            self._replace(mod, key, wrapper)
                            bound[name] += 1
        return bound

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._restore):
            setattr(owner, key, original)
        self._restore.clear()

    def _replace(self, owner, key, wrapper) -> None:
        self._restore.append((owner, key, vars(owner)[key]))
        setattr(owner, key, wrapper)

    def _wrap(self, name, fn, hook):
        tracer = self
        peaked = name in PEAK_SPANS

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            timed = tracer.timing
            if peaked and tracer.memory:
                tracer._peak_enter()
            if timed:
                span = [name, 0.0, 0.0, tracer._stack[-1] if tracer._stack else -1, tracer._op]
                tracer._stack.append(len(tracer.spans))
                tracer.spans.append(span)
                span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                if timed:
                    span[2] = time.perf_counter()
                    tracer._stack.pop()
                if peaked and tracer.memory:
                    tracer._peak_exit(name)
            if timed and hook is not None:
                hook(tracer, args, kwargs, result)
            return result

        return wrapper

    # -- recording ----------------------------------------------------

    @contextmanager
    def operation(self):
        """Root span of one benchmark op; library spans inside it are its children."""
        self._op += 1
        span = [ROOT_SPAN, 0.0, 0.0, -1, self._op]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        span[1] = time.perf_counter()
        try:
            yield
        finally:
            span[2] = time.perf_counter()
            self._stack.pop()

    def _peak_enter(self) -> None:
        current, peak = tracemalloc.get_traced_memory()
        if self._peak_stack:
            self._peak_stack[-1][1] = max(self._peak_stack[-1][1], peak)
        tracemalloc.reset_peak()
        self._peak_stack.append([current, current])

    def _peak_exit(self, name: str) -> None:
        _, peak = tracemalloc.get_traced_memory()
        start, highest = self._peak_stack.pop()
        highest = max(highest, peak)
        if self._peak_stack:
            self._peak_stack[-1][1] = max(self._peak_stack[-1][1], highest)
        self.peaks[name] = max(self.peaks[name], highest - start)

    # -- results ------------------------------------------------------

    def summary(self) -> dict:
        """Self time (s), calls and counters per span name over the recorded ops."""
        covered = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        self_s: defaultdict[str, float] = defaultdict(float)
        total_s: defaultdict[str, float] = defaultdict(float)
        calls: defaultdict[str, int] = defaultdict(int)
        for (name, start, end, _, _), child in zip(self.spans, covered):
            self_s[name] += end - start - child
            total_s[name] += end - start
            calls[name] += 1
        return {
            "ops": calls[ROOT_SPAN],
            "op_s": total_s[ROOT_SPAN],
            "self_s": self_s,
            "total_s": total_s,
            "calls": calls,
            "counts": self.counts,
            "peaks": self.peaks,
        }

    def dump(self, path) -> None:
        """Write the spans, one JSON object per line."""
        with open(path, "w", encoding="utf-8") as handle:
            for name, start, end, parent, op in self.spans:
                handle.write(
                    json.dumps(
                        {"name": name, "start": start, "end": end, "parent": parent, "op": op}
                    )
                    + "\n"
                )
