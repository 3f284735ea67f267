"""The check record and the report base shared by every verification report."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class Check:
    """One numeric check: a labelled value and the tolerance it must not exceed.

    A NaN value fails, since no comparison with it holds.
    """

    label: str
    value: float
    tol: float

    @property
    def passed(self) -> bool:
        return self.value <= self.tol

    @property
    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return f"{self.label}: {self.value:.3e} (tol {self.tol:.1e}): {status}"


class Report:
    """A report passes when all of its checks pass and renders one line per check."""

    def checks(self) -> list[Check]:
        raise NotImplementedError

    def passed(self) -> bool:
        return all(check.passed for check in self.checks())

    def render(self) -> str:
        return "\n".join(check.line for check in self.checks())


def format_matrix(m: np.ndarray) -> str:
    """Each complex entry as ``%+.6f%+.6fj``, one bracketed line per row.

    No entry is padded to the width of another, so a rounding-level sign
    flip changes only that entry's sign, not the layout around it.
    """
    m = np.asarray(m, dtype=complex)
    if m.ndim > 1:
        return "\n".join(format_matrix(row) for row in m)
    return "[" + ", ".join("%+.6f%+.6fj" % (z.real, z.imag) for z in m.tolist()) + "]"
