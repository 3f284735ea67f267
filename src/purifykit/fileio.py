"""Structured text files for ensembles, density matrices, states, and plans.

The documents are JSON with a fixed field order. Every real number is
written by ``orjson`` with the shortest digits that read back to the same
double (0.1 as ``0.1``, one as ``1.0``, negative zero as ``-0.0``), so
doubles round-trip exactly and rewriting the same data yields
byte-identical files; a NaN or an infinity is refused, not written.
Complex numbers are stored as [re, im] pairs.

A document is read as strict RFC 8259 JSON by ``orjson``: ``NaN`` and
``Infinity`` literals are refused, an integer wider than 64 bits reads as
the nearest double, a standalone ``-0`` reads as -0.0, and a document
nested deeper than ``MAX_DEPTH`` is refused before it is parsed. Files
written by earlier versions, with 17 significant digits and negative zero
as ``-0``, read to the same doubles.
"""

from __future__ import annotations

import itertools
import os
import re

import numpy as np
import orjson

from . import numerics
from .ensembles import DensityMatrix, Ensemble
from .errors import NotFinite, ParseError
from .purification import BipartiteState, SteeringPlan


def _render(value) -> bytes:
    """An integer as itself; an array, as float64 or complex128, as nested
    lists with complex entries as [re, im] pairs. Raises ``NotFinite`` on a
    NaN or an infinity, which JSON cannot hold."""
    if isinstance(value, int):
        return b"%d" % value
    values = np.asarray(value)
    if values.dtype.kind == "c":
        values = np.ascontiguousarray(values, dtype=complex)
        values = values.view(float).reshape(*values.shape, 2)
    else:
        values = np.ascontiguousarray(values, dtype=float)
    if not np.isfinite(values).all():
        raise NotFinite("a document holds only finite numbers")
    return orjson.dumps(values, option=orjson.OPT_SERIALIZE_NUMPY).replace(b",", b", ")


def write_text(path, text: str | bytes) -> None:
    """Write ``text``, bytes or a str as UTF-8, to ``path``, overwriting an
    existing file in place.

    The package's one file writer. It opens the path without ``O_TRUNC``,
    since on ext4 a truncating open, like a rename over the file, waits for
    writeback; it writes from the start and cuts the old tail only when the
    file was longer. The inode, links, mode and symlinks stay; a device or
    pipe has ``st_size`` 0, so ``truncate``, which raises there, is not called.
    """
    data = text.encode("utf-8") if isinstance(text, str) else text
    with open(os.open(path, os.O_WRONLY | os.O_CREAT, 0o666), "wb") as handle:
        handle.write(data)
        if os.fstat(handle.fileno()).st_size > len(data):
            handle.truncate(len(data))


def _write_document(path, fields: dict) -> None:
    """Every field is rendered before the file is opened, so a field that
    cannot be written leaves the file as it was."""
    body = b",\n".join(b"  %s: %s" % (orjson.dumps(k), _render(v)) for k, v in fields.items())
    write_text(path, b"{\n" + body + b"\n}\n")


_FORMS = {
    1: "a list of numbers",
    2: "a list of [re, im] pairs",
    3: "a list of equal-length rows of [re, im] pairs",
}


def _parse_numbers(raw, ndim: int, what: str) -> np.ndarray:
    """JSON numbers nested ``ndim`` lists deep, as a float or complex array.

    Above one level the innermost lists are [re, im] pairs and the result
    is complex with one axis fewer. numpy reads a string as text and a
    boolean beside numbers as 0 or 1; neither is a JSON number, so both
    are refused, as are integers too large for a machine word. Only an
    entry of exactly 0 or 1 can be a boolean, so only then are the leaves
    walked.
    """
    try:
        values = np.array(raw)
    except ValueError:  # ragged, or nested deeper than numpy allows
        values = np.array(None)
    shaped = values.ndim == ndim and (ndim == 1 or values.shape[-1] == 2)
    if shaped and values.dtype.kind in "iuf":
        leaves = raw
        for _ in range(ndim - 1):
            leaves = itertools.chain.from_iterable(leaves)
        if not ((values == 0) | (values == 1)).any() or bool not in map(type, leaves):
            values = np.ascontiguousarray(values, dtype=float)
            return values if ndim == 1 else values.view(complex)[..., 0]
    raise ParseError(f"{what} must be {_FORMS[ndim]}")


# purifykit documents nest at most 4 deep; orjson sets no limit of its own
# and overflows the C stack somewhere past 100,000 levels
MAX_DEPTH = 1000
# Files written with "%.17g" by earlier versions hold -0.0 as -0, which
# orjson would read as the integer 0. The minus of an exponent such as 1e-0
# is skipped; the pattern starts with the literal "-" so that the regex
# engine can jump from one minus to the next
_NEGATIVE_ZERO = re.compile(rb"-(?<![eE]-)0(?=[\s,\]}])")
_BRACKET_STEPS = bytes.maketrans(b"[{]}", b"\x01\x01\xff\xff")
_NOT_BRACKETS = bytes(sorted(set(range(256)) - set(b"[{]}")))


def _nesting_depth(data: bytes) -> int:
    """The deepest running count of opening over closing brackets. Brackets
    inside strings count too, so this bounds the depth of the parsed JSON."""
    steps = data.translate(_BRACKET_STEPS, _NOT_BRACKETS)
    return int(np.frombuffer(steps, np.int8).cumsum().max()) if steps else 0


def _load_document(path, expected_fields: tuple[str, ...]) -> dict:
    with open(path, "rb") as handle:
        data = handle.read()
    if _nesting_depth(data) > MAX_DEPTH:
        raise ParseError(f"{path}: not a valid document (nested deeper than {MAX_DEPTH} levels)")
    try:
        doc = orjson.loads(_NEGATIVE_ZERO.sub(b"-0.0", data))
    except ValueError as exc:  # bad JSON or UTF-8, a number past the double range
        raise ParseError(f"{path}: not a valid document ({exc})") from exc
    if not isinstance(doc, dict):
        raise ParseError(f"{path}: top level must be an object")
    missing = [f for f in expected_fields if f not in doc]
    if missing:
        raise ParseError(f"{path}: missing fields {missing}")
    return doc


def write_ensemble(path, ensemble: Ensemble) -> None:
    _write_document(path, {
        "dim": ensemble.dim,
        "weights": ensemble.weights,
        "states": ensemble.states,
    })


def read_ensemble(path) -> Ensemble:
    doc = _load_document(path, ("dim", "weights", "states"))
    dim = numerics.as_dimension(doc["dim"], ParseError, f"{path}: dim")
    weights = _parse_numbers(doc["weights"], 1, f"{path}: weights")
    states = _parse_numbers(doc["states"], 3, f"{path}: states")
    return Ensemble(dim, weights, states)


def write_density_matrix(path, rho: DensityMatrix) -> None:
    _write_document(path, {
        "dim": rho.dim,
        "entries": rho.matrix.ravel(),
    })


def read_density_matrix(path) -> DensityMatrix:
    doc = _load_document(path, ("dim", "entries"))
    dim = numerics.as_dimension(doc["dim"], ParseError, f"{path}: dim")
    entries = _parse_numbers(doc["entries"], 2, f"{path}: entries")
    if entries.size != dim * dim:
        raise ParseError(f"{path}: expected {dim * dim} entries, got {entries.size}")
    return DensityMatrix(dim, entries.reshape(dim, dim))


def write_bipartite_state(path, psi: BipartiteState) -> None:
    _write_document(path, {
        "dim_s": psi.dim_s,
        "dim_k": psi.dim_k,
        "amplitudes": psi.amplitudes,
    })


def read_bipartite_state(path) -> BipartiteState:
    doc = _load_document(path, ("dim_s", "dim_k", "amplitudes"))
    dim_s = numerics.as_dimension(doc["dim_s"], ParseError, f"{path}: dim_s")
    dim_k = numerics.as_dimension(doc["dim_k"], ParseError, f"{path}: dim_k")
    amplitudes = _parse_numbers(doc["amplitudes"], 2, f"{path}: amplitudes")
    return BipartiteState(dim_s, dim_k, amplitudes)


def write_plan(path, plan: SteeringPlan) -> None:
    _write_document(path, {
        "coeffs": plan.coeffs,
        "isometry": plan.isometry,
        "unitary": plan.unitary,
    })


def read_plan(path) -> SteeringPlan:
    """The plan of a file, its unitary checked by ``SteeringPlan.set_unitary``
    and kept as read, never completed again."""
    fields = ("coeffs", "isometry", "unitary")
    doc = _load_document(path, fields)
    coeffs, isometry, unitary = (
        _parse_numbers(doc[name], 3, f"{path}: {name}") for name in fields
    )
    plan = SteeringPlan(coeffs, isometry, dim_k=len(unitary))
    plan.set_unitary(unitary)
    return plan
