"""Structured text files for ensembles, density matrices, states, and plans.

Each document is one line of JSON with a fixed field order and a trailing
newline, written by one ``orjson.dumps`` call. Every real number has the
shortest digits that read back to the same double (0.1 as ``0.1``, one as
``1.0``, negative zero as ``-0.0``), so doubles round-trip exactly and
rewriting the same data yields byte-identical files; a NaN or an infinity
is refused, not written. Complex numbers are stored as [re, im] pairs.

A document is read as strict RFC 8259 JSON by ``orjson``: ``NaN`` and
``Infinity`` literals are refused, an integer wider than 64 bits reads as
the nearest double, a standalone ``-0`` is the integer 0 and so reads as
positive zero, and a document nested deeper than ``MAX_DEPTH`` is refused
before it is parsed. Each document is parsed once, and each array field is
converted by one ``np.array`` (see ``_Document``).
"""

from __future__ import annotations

import itertools
import os

import numpy as np
import orjson

from . import numerics
from .ensembles import DensityMatrix, Ensemble
from .errors import NotFinite, ParseError
from .purification import BipartiteState, SteeringPlan


def _finite_floats(value):
    """An integer as itself; an array as float64, a complex one as its
    no-copy [re, im] float64 view. Raises ``NotFinite`` on a NaN or an
    infinity, which JSON cannot hold."""
    if isinstance(value, int):
        return value
    values = np.asarray(value)
    if values.dtype.kind == "c":
        values = np.ascontiguousarray(values, dtype=complex)
        values = values.view(float).reshape(*values.shape, 2)
    else:
        values = np.ascontiguousarray(values, dtype=float)
    if not np.isfinite(values).all():
        raise NotFinite("a document holds only finite numbers")
    return values


def write_text(path, data: str | bytes) -> None:
    """Write ``data``, bytes or a str as UTF-8, to ``path``, overwriting an
    existing file in place.

    The package's one file writer. It opens the path without ``O_TRUNC``,
    since on ext4 a truncating open, like a rename over the file, waits for
    writeback; it writes from the start and cuts the old tail only when the
    file was longer. The inode, links, mode and symlinks stay; a device or
    pipe has ``st_size`` 0, so ``truncate``, which raises there, is not called.
    """
    if isinstance(data, str):
        data = data.encode("utf-8")
    with open(os.open(path, os.O_WRONLY | os.O_CREAT, 0o666), "wb") as handle:
        handle.write(data)
        if os.fstat(handle.fileno()).st_size > len(data):
            handle.truncate(len(data))


def _write_document(path, fields: dict) -> None:
    """The whole document is serialized before the file is opened, so a
    field that cannot be written leaves the file as it was."""
    fields = {key: _finite_floats(value) for key, value in fields.items()}
    option = orjson.OPT_SERIALIZE_NUMPY | orjson.OPT_APPEND_NEWLINE
    write_text(path, orjson.dumps(fields, option=option))


_FORMS = {
    1: "a list of numbers",
    2: "a list of [re, im] pairs",
    3: "a list of equal-length rows of [re, im] pairs",
}


def _parse_numbers(raw, ndim: int, what: str) -> np.ndarray:
    """JSON numbers nested ``ndim`` lists deep, as a float or complex array.

    Above one level the innermost lists are [re, im] pairs and the result
    is complex with one axis fewer. The lists of each level must share one
    width, 2 at the pair level; their leaves are flattened into one list
    and converted by one ``np.array``, which must give a 1-D array of
    numbers. numpy reads a string as text and a boolean beside numbers as
    0 or 1; neither is a JSON number, so both are refused, as are integers
    too large for a machine word. Only an entry of exactly 0 or 1 can be a
    boolean, so only the leaves at those entries are looked at.
    """
    leaves, widths = raw, []
    try:
        for _ in range(ndim - 1):
            # ValueError unless the lists share one width; TypeError on a number or null
            (width,) = set(map(len, leaves))
            widths.append(width)
            leaves = list(itertools.chain.from_iterable(leaves))
        values = np.array(leaves)
    except (TypeError, ValueError):  # and numpy's: ragged, or nested deeper than it allows
        values = np.array(None)
    shaped = values.ndim == 1 and (ndim == 1 or widths[-1] == 2)
    if shaped and values.dtype.kind in "iuf":
        suspects = np.flatnonzero((values == 0) | (values == 1)).tolist()
        if not any(type(leaves[i]) is bool for i in suspects):
            values = np.ascontiguousarray(values, dtype=float)
            return values if ndim == 1 else values.view(complex).reshape(-1, *widths[:-1])
    raise ParseError(f"{what} must be {_FORMS[ndim]}")


# purifykit documents nest at most 4 deep; orjson sets no limit of its own
# and overflows the C stack somewhere past 100,000 levels
MAX_DEPTH = 1000
_BRACKET_STEPS = bytes.maketrans(b"[{]}", b"\x01\x01\xff\xff")
_NOT_BRACKETS = bytes(sorted(set(range(256)) - set(b"[{]}")))


def _nesting_depth(data: bytes) -> int:
    """The deepest running count of opening over closing brackets. Brackets
    inside strings count too, so this bounds the depth of the parsed JSON."""
    steps = data.translate(_BRACKET_STEPS, _NOT_BRACKETS)
    return int(np.frombuffer(steps, np.int8).cumsum().max()) if steps else 0


def _opening_brackets(data: bytes) -> int:
    """The count of "[" and "{" bytes, a bound on the nesting depth."""
    codes = np.frombuffer(data, np.uint8)
    return int(np.count_nonzero((codes == ord("[")) | (codes == ord("{"))))


class _Document:
    """A document's fields, parsed once as read and read in a fixed order.

    The running depth is scanned only when the count of opening brackets,
    which bounds it, exceeds ``MAX_DEPTH``. The bytes are dropped after the
    parse, so a large file is held once, as its parsed fields.
    """

    def __init__(self, path, expected_fields: tuple[str, ...]):
        self.path = path
        with open(path, "rb") as handle:
            data = handle.read()
        if _opening_brackets(data) > MAX_DEPTH and _nesting_depth(data) > MAX_DEPTH:
            raise ParseError(
                f"{path}: not a valid document (nested deeper than {MAX_DEPTH} levels)"
            )
        try:
            self.fields = orjson.loads(data)
        except ValueError as exc:  # bad JSON or UTF-8, a number past the double range
            raise ParseError(f"{path}: not a valid document ({exc})") from exc
        if not isinstance(self.fields, dict):
            raise ParseError(f"{path}: top level must be an object")
        missing = [f for f in expected_fields if f not in self.fields]
        if missing:
            raise ParseError(f"{path}: missing fields {missing}")

    def dimension(self, name: str) -> int:
        return numerics.as_dimension(self.fields[name], ParseError, f"{self.path}: {name}")

    def numbers(self, name: str, ndim: int) -> np.ndarray:
        return _parse_numbers(self.fields[name], ndim, f"{self.path}: {name}")


def write_ensemble(path, ensemble: Ensemble) -> None:
    _write_document(path, {
        "dim": ensemble.dim,
        "weights": ensemble.weights,
        "states": ensemble.states,
    })


def read_ensemble(path) -> Ensemble:
    doc = _Document(path, ("dim", "weights", "states"))
    return Ensemble(doc.dimension("dim"), doc.numbers("weights", 1), doc.numbers("states", 3))


def write_density_matrix(path, rho: DensityMatrix) -> None:
    _write_document(path, {
        "dim": rho.dim,
        "entries": rho.matrix.ravel(),
    })


def read_density_matrix(path) -> DensityMatrix:
    doc = _Document(path, ("dim", "entries"))
    dim = doc.dimension("dim")
    entries = doc.numbers("entries", 2)
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
    doc = _Document(path, ("dim_s", "dim_k", "amplitudes"))
    return BipartiteState(
        doc.dimension("dim_s"), doc.dimension("dim_k"), doc.numbers("amplitudes", 2)
    )


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
    doc = _Document(path, fields)
    coeffs, isometry, unitary = (doc.numbers(name, 3) for name in fields)
    plan = SteeringPlan(coeffs, isometry, dim_k=len(unitary))
    plan.set_unitary(unitary)
    return plan
