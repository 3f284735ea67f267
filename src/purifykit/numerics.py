"""Dense complex linear-algebra primitives used by every other module.

Operators are plain numpy arrays with complex entries; state vectors are
one-dimensional unit-norm arrays. The validators here are the single
place where those conventions are enforced.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    DimensionMismatch,
    NotFinite,
    NotHermitian,
    NotNormalized,
    NotSquare,
)


@dataclass(frozen=True)
class Tolerances:
    """Every fixed tolerance of the package, one field per numeric check.

    The user tolerance of the steering commands (``--tol``,
    ``PURIFYKIT_TOL``, the ``tol=`` arguments) defaults to ``equivalence``.
    """

    # operators and states
    hermiticity: float = 1e-10
    orthonormality: float = 1e-10
    norm: float = 1e-12
    # ensembles and density matrices
    equivalence: float = 1e-9
    weight_sum: float = 1e-10
    density_trace: float = 1e-10
    eigenvalue_floor: float = -1e-10
    spectral_cutoff: float = 1e-10
    # purification and steering
    isometry: float = 1e-9
    plan_unitarity: float = 1e-9
    partial_trace: float = 1e-10
    outcome_floor: float = 1e-12
    # Hamiltonian dynamics
    commutator: float = 1e-12
    power: float = 1e-12
    closed_form: float = 1e-10
    correlation: float = 1e-10
    quarter_turn: float = 1e-12
    # qubit circuit
    recovery: float = 1e-10
    circuit_vs_hamiltonian: float = 1e-10


TOL = Tolerances()


def dag(m: np.ndarray) -> np.ndarray:
    """Conjugate transpose."""
    return np.conj(m).T


def max_abs(values) -> float:
    """Largest entry magnitude; zero for empty input."""
    arr = np.asarray(values)
    return float(np.max(np.abs(arr))) if arr.size else 0.0


def as_array(values, dtype=complex) -> np.ndarray:
    """Coerce to an array of ``dtype``; a ragged nesting, an entry that is not
    a number, or a complex entry where ``dtype`` is real raises
    ``DimensionMismatch``, an integer too large ``NotFinite``."""
    try:
        # numpy would drop the imaginary part with no more than a warning
        refused = np.dtype(dtype).kind != "c" and np.iscomplexobj(values)
        if not refused:
            return np.asarray(values, dtype=dtype)
    except OverflowError as exc:
        raise NotFinite(f"entries must be finite: {exc}") from exc
    except (TypeError, ValueError) as exc:
        raise DimensionMismatch(f"expected a rectangular array of numbers: {exc}") from exc
    raise DimensionMismatch("expected real numbers, got complex entries")


def as_dimension(value, error: type[Exception], what: str) -> int:
    """``value`` as a plain ``int``; a bool, a non-integer or a value below
    one raises ``error``."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or value < 1:
        raise error(f"{what} must be a positive integer, got {value!r}")
    return int(value)


def as_matrix(m) -> np.ndarray:
    """Coerce to a finite 2-D complex array."""
    mat = as_array(m)
    if mat.ndim != 2:
        raise DimensionMismatch(f"expected a 2-D matrix, got shape {mat.shape}")
    if not np.all(np.isfinite(mat)):
        raise NotFinite("matrix entries must be finite")
    return mat


def as_state(v) -> np.ndarray:
    """Coerce to a finite 1-D complex array of unit Euclidean norm.

    The squared norm is a total probability, so it may differ from 1 by
    ``TOL.weight_sum``, the slack an ensemble's weights are allowed.
    """
    vec = as_array(v)
    if vec.ndim != 1 or vec.size == 0:
        raise DimensionMismatch(f"expected a 1-D state vector, got shape {vec.shape}")
    if not np.all(np.isfinite(vec)):
        raise NotFinite("state amplitudes must be finite")
    total = float(np.vdot(vec, vec).real)
    if abs(total - 1.0) > TOL.weight_sum:
        raise NotNormalized(
            f"squared state norm {total} differs from 1 by more than {TOL.weight_sum}"
        )
    return vec


def state_fidelity(a, b) -> float:
    """|<a|b>| for unit vectors, at most 1 (a NaN stays NaN); equals 1 iff
    the states agree up to a global phase."""
    return float(np.minimum(abs(np.vdot(as_array(a), as_array(b))), 1.0))


def hermitian_eig(m) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecomposition of a Hermitian matrix.

    Returns the real eigenvalues in descending order together with the
    matching orthonormal eigenvectors as columns.
    """
    mat = as_matrix(m)
    if mat.shape[0] != mat.shape[1]:
        raise NotSquare(f"matrix is {mat.shape[0]}x{mat.shape[1]}, must be square")
    if max_abs(mat - dag(mat)) > TOL.hermiticity:
        raise NotHermitian(f"matrix deviates from its adjoint by more than {TOL.hermiticity}")
    values, vectors = np.linalg.eigh(mat)
    return values[::-1].copy(), np.ascontiguousarray(vectors[:, ::-1])


def partial_trace_k(m, dim_s: int, dim_k: int) -> np.ndarray:
    """Trace out the second (reference) factor of an operator on S x K.

    Joint indices are row-major: (s, k) -> s * dim_k + k.
    """
    mat = as_matrix(m)
    side = dim_s * dim_k
    if mat.shape != (side, side):
        raise DimensionMismatch(
            f"operator of side {mat.shape[0]} does not factor as {dim_s} x {dim_k}"
        )
    return np.einsum("ikjk->ij", mat.reshape(dim_s, dim_k, dim_s, dim_k))


def exp_from_eig(values, vectors, scale: float = 1.0) -> np.ndarray:
    """exp(-i * scale * h) for h = vectors diag(values) vectors^+, from
    its decomposition by :func:`hermitian_eig`."""
    return (vectors * np.exp(-1j * scale * values)) @ dag(vectors)


def gram_schmidt_complete(block: np.ndarray) -> np.ndarray:
    """Complete the n rows of a finite n x d ``block``, n <= d, to a d x d matrix.

    The given rows are kept verbatim as the leading rows of the output.
    The rest are the conjugated trailing columns of Q in one complete QR
    factorization A^H = QR of the block A; A Q[:, n:] = R^H[:, n:] = 0, so
    for any finite rows they are orthonormal and orthogonal to each row.
    The result is unitary exactly when the rows are orthonormal. The block
    is ``SteeringPlan``'s zero-padded isometry, which the plan has already
    checked to be finite with orthonormal rows, so none of that is checked
    again here. The completed rows are deterministic, but only their span
    is fixed by the rows. No rows give the identity.
    """
    q, _ = np.linalg.qr(dag(block), mode="complete")
    return np.concatenate([block, dag(q[:, len(block):])])


def haar_unitary(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-distributed random unitary via QR of a complex Gaussian matrix."""
    z = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    q, r = np.linalg.qr(z / np.sqrt(2.0))
    diag = np.diagonal(r)
    return q * (diag / np.abs(diag))
