"""Weighted pure-state mixtures, their density operators, and the
shared-density-operator equivalence relation.

An :class:`Ensemble` is a finite list of strictly positive weights and
normalized states; the states need not be orthogonal, and the map from
ensembles to density matrices is many-to-one. Two ensembles are
equivalent exactly when their density matrices coincide.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import numerics
from .errors import (
    ContractViolation,
    CountTooSmall,
    DimensionMismatch,
    InvalidEnsemble,
    NotADensityMatrix,
)
from .numerics import TOL


@dataclass
class Ensemble:
    """Finite mixture of normalized pure states with positive weights.

    ``states`` holds one state per row, so ``states[i]`` is the vector
    paired with ``weights[i]``. Repeated states are kept as given: the
    mixtures (p, psi) and (p/2, psi; p/2, psi) are distinct ensembles
    inside one equivalence class.
    """

    dim: int
    weights: np.ndarray
    states: np.ndarray

    def __post_init__(self):
        self.dim = numerics.as_dimension(self.dim, InvalidEnsemble, "dim")
        self.weights = numerics.as_array(self.weights, float)
        self.states = numerics.as_array(self.states)
        if self.weights.ndim != 1 or self.weights.size == 0:
            raise InvalidEnsemble("weights must form a non-empty 1-D array")
        if self.states.shape != (self.weights.size, self.dim):
            raise InvalidEnsemble(
                f"states must have shape ({self.weights.size}, {self.dim}), "
                f"got {self.states.shape}"
            )
        if not np.all(np.isfinite(self.weights)) or not np.all(np.isfinite(self.states)):
            raise InvalidEnsemble("weights and states must be finite")
        if np.any(self.weights <= 0.0):
            raise InvalidEnsemble("weights must be strictly positive")
        total = float(self.weights.sum())
        if abs(total - 1.0) > TOL.weight_sum:
            raise InvalidEnsemble(
                f"weights sum to {total}, must equal 1 within {TOL.weight_sum}"
            )
        norms = np.linalg.norm(self.states, axis=1)
        worst = float(np.max(np.abs(norms - 1.0)))
        if worst > TOL.norm:
            raise InvalidEnsemble(
                f"every state must be unit norm within {TOL.norm} "
                f"(worst deviation {worst})"
            )

    @property
    def size(self) -> int:
        return int(self.weights.size)


@dataclass
class DensityMatrix:
    """Hermitian, positive-semidefinite, trace-one operator.

    Validation decomposes the matrix once and keeps the result:
    ``eigenvalues`` in descending order with the matching orthonormal
    ``eigenvectors`` as columns, ordered as :func:`numerics.hermitian_eig`
    orders them.
    """

    dim: int
    matrix: np.ndarray
    eigenvalues: np.ndarray = field(init=False, repr=False)
    eigenvectors: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        self.dim = numerics.as_dimension(self.dim, NotADensityMatrix, "dim")
        self.matrix = numerics.as_array(self.matrix)
        if self.matrix.shape != (self.dim, self.dim):
            raise NotADensityMatrix(
                f"matrix must be {self.dim}x{self.dim}, got {self.matrix.shape}"
            )
        if not np.all(np.isfinite(self.matrix)):
            raise NotADensityMatrix("matrix entries must be finite")
        if numerics.max_abs(self.matrix - numerics.dag(self.matrix)) > TOL.hermiticity:
            raise NotADensityMatrix(f"matrix is not Hermitian within {TOL.hermiticity}")
        trace = complex(np.trace(self.matrix))
        if abs(trace - 1.0) > TOL.density_trace:
            raise NotADensityMatrix(f"trace {trace} differs from 1 beyond {TOL.density_trace}")
        values, vectors = np.linalg.eigh(self.matrix)
        smallest = float(values[0])
        if smallest < TOL.eigenvalue_floor:
            raise NotADensityMatrix(
                f"smallest eigenvalue {smallest} is below {TOL.eigenvalue_floor}"
            )
        self.eigenvalues = values[::-1].copy()
        self.eigenvectors = np.ascontiguousarray(vectors[:, ::-1])


@dataclass
class SpectralEnsemble(Ensemble):
    """The canonical ensemble: eigenvalues with orthonormal eigenvectors.

    An :class:`Ensemble` whose states are also pairwise orthonormal and
    whose weights are sorted in non-increasing order. Degenerate
    eigenspaces admit any orthonormal basis, so equality of spectral
    ensembles is only meaningful projector-wise.
    """

    def __post_init__(self):
        super().__post_init__()
        if np.any(np.diff(self.weights) > 0):
            raise InvalidEnsemble("weights must be sorted in non-increasing order")
        gram = self.states @ numerics.dag(self.states)
        residual = numerics.max_abs(gram - np.eye(self.rank))
        if residual > TOL.orthonormality:
            raise InvalidEnsemble(
                f"states must be pairwise orthonormal within {TOL.orthonormality} "
                f"(residual {residual})"
            )

    @property
    def rank(self) -> int:
        return self.size


def _weighted_projector_sum(ensemble: Ensemble) -> np.ndarray:
    """sum_i w_i |psi_i><psi_i| as one matrix product, (X^T w) @ conj(X) for states X."""
    return (ensemble.states.T * ensemble.weights) @ ensemble.states.conj()


def density_matrix(ensemble: Ensemble) -> DensityMatrix:
    """Sum of weighted projectors onto the ensemble states.

    Invalid ensembles cannot be constructed, so the ``InvalidEnsemble``
    failure mode surfaces at :class:`Ensemble` creation time.
    """
    return DensityMatrix(ensemble.dim, _weighted_projector_sum(ensemble))


def spectral_ensemble(rho: DensityMatrix) -> SpectralEnsemble:
    """Eigendecompose a density matrix into its canonical ensemble.

    Eigenvalues at or below ``TOL.spectral_cutoff`` are discarded, which
    keeps every retained weight safely away from zero for later weight
    ratios. The decomposition is the one :class:`DensityMatrix` stored
    when it validated ``rho``.
    """
    if not isinstance(rho, DensityMatrix):
        raise NotADensityMatrix("expected a DensityMatrix")
    keep = rho.eigenvalues > TOL.spectral_cutoff
    if not np.any(keep):
        raise NotADensityMatrix("no eigenvalue above the cutoff")
    return SpectralEnsemble(rho.dim, rho.eigenvalues[keep], rho.eigenvectors[:, keep].T)


def density_deviation(e1: Ensemble, e2: Ensemble) -> float:
    """Largest entry of the difference between the two density matrices.

    The ensembles are already valid, so no :class:`DensityMatrix` is built.
    """
    if e1.dim != e2.dim:
        raise DimensionMismatch(f"dimensions differ: {e1.dim} vs {e2.dim}")
    return numerics.max_abs(_weighted_projector_sum(e1) - _weighted_projector_sum(e2))


def are_equivalent(e1: Ensemble, e2: Ensemble, tol: float = TOL.equivalence) -> bool:
    """True when the two ensembles share one density matrix within tol."""
    return density_deviation(e1, e2) <= tol


def random_equivalent_ensemble(rho: DensityMatrix, count: int, seed: int) -> Ensemble:
    """Draw a random ensemble of ``count`` states equivalent to ``rho``.

    Mixes the spectral components through a seeded Haar-random unitary:
    the j-th unnormalized state is sum_i sqrt(d_i) U_ij phi_i, and its
    squared norm becomes the j-th weight. Redraws (deterministically from
    the same stream) while any weight falls below 1e-6, and raises
    ``ContractViolation`` after 64 draws.
    """
    spectral = spectral_ensemble(rho)
    if count < spectral.rank:
        raise CountTooSmall(
            f"count {count} is below the density-matrix rank {spectral.rank}"
        )
    rng = np.random.default_rng(seed)
    roots = np.sqrt(spectral.weights)
    for _ in range(64):
        mixer = numerics.haar_unitary(count, rng)
        unnormalized = (roots[:, None] * mixer[: spectral.rank, :]).T @ spectral.states
        probs = np.linalg.norm(unnormalized, axis=1) ** 2
        if float(probs.min()) >= 1e-6:
            break
    else:
        raise ContractViolation("64 draws gave no ensemble whose weights are all at least 1e-6")
    states = unnormalized / np.sqrt(probs)[:, None]
    return Ensemble(rho.dim, probs, states)


def _floored_weights(count: int, floor: float, rng: np.random.Generator) -> np.ndarray:
    """``count`` random weights summing to 1, each at least ``floor``: one Dirichlet draw."""
    if count * floor >= 1.0:
        raise InvalidEnsemble(f"{count} weights of at least {floor} cannot sum to 1")
    return floor + (1.0 - count * floor) * rng.dirichlet(np.ones(count))


def random_ensemble(
    dim: int, count: int, rng: np.random.Generator, min_weight: float = 1e-6
) -> Ensemble:
    """Random mixture of ``count`` normalized complex Gaussian states.

    The weights are Dirichlet distributed above the floor ``min_weight``.
    """
    weights = _floored_weights(count, min_weight, rng)
    draws = rng.standard_normal((count, 2, dim))  # real then imaginary part, state by state
    states = np.array([v / np.linalg.norm(v) for v in draws[:, 0] + 1j * draws[:, 1]])
    return Ensemble(dim, weights, states)


def random_density_matrix(
    dim: int, rank: int, rng: np.random.Generator, min_weight: float = 1e-3
) -> DensityMatrix:
    """Random rank-constrained density matrix with eigenvalues >= min_weight."""
    if not 1 <= rank <= dim:
        raise DimensionMismatch(f"rank must lie in [1, {dim}], got {rank}")
    weights = _floored_weights(rank, min_weight, rng)
    vectors = numerics.haar_unitary(dim, rng)[:, :rank]
    rho = (vectors * weights) @ numerics.dag(vectors)
    return DensityMatrix(dim, rho)
