"""The recursive per-number renderer of earlier file writers, for the tests only.

It converts each array to nested Python lists and renders every leaf with
``format(x, ".17g")`` in the spaced multi-line layout of files written by
earlier versions, which the readers must still take: such a file reads to
the same doubles as a new one-line file of the same data, but for a
standalone ``-0``, which JSON reads as the integer 0. ``nested`` also gives
the lists a new document holds for an array.
"""

import json
import re

import numpy as np

# a JSON number, or one of the "%.17g" forms such as -0 or 1e+16
NUMBER = re.compile(r"[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?")


def significant_digits(token: str) -> int:
    """The count of significant digits of a number token (0 counts as one)."""
    mantissa = re.split("[eE]", token)[0].lstrip("+-").replace(".", "")
    return len(mantissa.strip("0")) or 1


def document(fields: dict) -> str:
    """A document as the "%.17g" writers of earlier versions wrote it."""
    body = ",\n".join(f"  {json.dumps(k)}: {render(nested(v))}" for k, v in fields.items())
    return "{\n" + body + "\n}\n"


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
    floats, complex entries as [re, im] pairs; an integer as itself."""
    if isinstance(values, int):
        return values
    values = np.asarray(values)
    if values.dtype.kind != "c":
        return values.tolist()
    if values.ndim == 1:
        return complex_pairs(values)
    return [nested(row) for row in values]
