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
    NotOrthonormal,
    NotSquare,
    TooManyRows,
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
    completion_floor: float = 1e-8
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
    probability_slack: float = 1e-12
    # Hamiltonian dynamics
    term_hermiticity: float = 1e-12
    commutator: float = 1e-12
    power: float = 1e-12
    closed_form: float = 1e-10
    correlation: float = 1e-10
    quarter_turn: float = 1e-12
    # qubit circuit
    gate_unitarity: float = 1e-12
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


def as_matrix(m) -> np.ndarray:
    """Coerce to a finite 2-D complex array."""
    mat = np.asarray(m, dtype=complex)
    if mat.ndim != 2:
        raise DimensionMismatch(f"expected a 2-D matrix, got shape {mat.shape}")
    if not np.all(np.isfinite(mat)):
        raise NotFinite("matrix entries must be finite")
    return mat


def as_state(v) -> np.ndarray:
    """Coerce to a finite 1-D complex array of unit Euclidean norm."""
    vec = np.asarray(v, dtype=complex)
    if vec.ndim != 1 or vec.size == 0:
        raise DimensionMismatch(f"expected a 1-D state vector, got shape {vec.shape}")
    if not np.all(np.isfinite(vec)):
        raise NotFinite("state amplitudes must be finite")
    norm = float(np.linalg.norm(vec))
    if abs(norm - 1.0) > TOL.norm:
        raise NotNormalized(f"state norm {norm} differs from 1 by more than {TOL.norm}")
    return vec


def basis_state(dim: int, index: int) -> np.ndarray:
    """Standard basis column e_index in the given dimension."""
    vec = np.zeros(dim, dtype=complex)
    vec[index] = 1.0
    return vec


def state_fidelity(a, b) -> float:
    """|<a|b>| for unit vectors; equals 1 iff the states agree up to a global phase."""
    return float(abs(np.vdot(np.asarray(a, dtype=complex), np.asarray(b, dtype=complex))))


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


def mat_exp_hermitian(h, scale: float = 1.0) -> np.ndarray:
    """exp(-i * scale * h) for Hermitian h, computed spectrally."""
    values, vectors = hermitian_eig(h)
    phases = np.exp(-1j * scale * values)
    return (vectors * phases) @ dag(vectors)


def gram_schmidt_complete(rows, target_dim: int) -> np.ndarray:
    """Complete orthonormal rows to a full target_dim x target_dim unitary.

    The given rows are kept verbatim as the leading rows of the output.
    Candidate directions are the standard basis vectors swept in index
    order; each is projected off the rows collected so far as one block
    (a matrix-vector step), and the projection is applied twice, which
    is enough for orthogonality to working precision (Giraud, Langou and
    Rozloznik, 2005). A candidate is skipped when its remaining component
    is shorter than ``TOL.completion_floor``. The result is deterministic.
    """
    given = [np.asarray(row, dtype=complex) for row in rows]
    if len(given) > target_dim:
        raise TooManyRows(f"{len(given)} rows cannot fit in dimension {target_dim}")
    for row in given:
        if row.shape != (target_dim,):
            raise DimensionMismatch(f"every row must have length {target_dim}")
    out = np.zeros((target_dim, target_dim), dtype=complex)
    filled = len(given)
    if given:
        out[:filled] = given
        block = out[:filled]
        if max_abs(block @ dag(block) - np.eye(filled)) > TOL.orthonormality:
            raise NotOrthonormal(
                f"input rows are not pairwise orthonormal within {TOL.orthonormality}"
            )
    for index in range(target_dim):
        if filled == target_dim:
            break
        candidate = basis_state(target_dim, index)
        block = out[:filled]
        for _ in range(2):
            # <row|candidate> for every row at once, without copying the block
            overlaps = np.conj(block @ np.conj(candidate))
            candidate -= overlaps @ block
        length = float(np.linalg.norm(candidate))
        if length <= TOL.completion_floor:
            continue
        out[filled] = candidate / length
        filled += 1
    if filled != target_dim:
        raise RuntimeError("standard-basis sweep failed to complete the unitary")
    return out


def haar_unitary(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-distributed random unitary via QR of a complex Gaussian matrix."""
    z = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    q, r = np.linalg.qr(z / np.sqrt(2.0))
    diag = np.diagonal(r)
    return q * (diag / np.abs(diag))
