"""The array field parser of earlier readers, for the tests only.

It hands the parsed nested lists to one ``np.array`` call and then checks
the shape and dtype numpy found. ``fileio._parse_numbers`` now checks the
widths level by level and converts the flattened leaves once; on every
parsed JSON value the two must accept the same fields with the same
arrays, bit for bit, and refuse the rest with the same message.
"""

import itertools

import numpy as np

from purifykit.errors import ParseError

FORMS = {
    1: "a list of numbers",
    2: "a list of [re, im] pairs",
    3: "a list of equal-length rows of [re, im] pairs",
}


def parse_numbers(raw, ndim: int, what: str) -> np.ndarray:
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
    raise ParseError(f"{what} must be {FORMS[ndim]}")
