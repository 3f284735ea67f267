"""The recursive per-number renderer of the file writers, for the tests only.

The writers fill one ``%`` template per array; this is the form they
replaced, which converted each array to nested Python lists and rendered
every leaf with ``format(x, ".17g")``. The two must give the same bytes.
"""

import json

import numpy as np


def render(value) -> str:
    if isinstance(value, bool):
        raise TypeError("booleans have no place in these documents")
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return format(float(value), ".17g")
    if isinstance(value, str):
        return json.dumps(value)
    if isinstance(value, dict):
        inner = ", ".join(f"{json.dumps(k)}: {render(v)}" for k, v in value.items())
        return "{" + inner + "}"
    if isinstance(value, (list, tuple)):
        return "[" + ", ".join(render(v) for v in value) + "]"
    raise TypeError(f"cannot render {type(value)!r}")


def complex_pairs(values) -> list:
    return [[float(v.real), float(v.imag)] for v in np.asarray(values, complex).ravel()]


def nested(values) -> list:
    """An array as the nested lists the writers rendered: real entries as
    floats, complex entries as [re, im] pairs."""
    values = np.asarray(values)
    if values.dtype.kind != "c":
        return values.tolist()
    if values.ndim == 1:
        return complex_pairs(values)
    return [nested(row) for row in values]
