"""Weighted pure-state mixtures, their density operators, and the
shared-density-operator equivalence relation.

An :class:`Ensemble` is a finite list of strictly positive weights and
normalized states; the states need not be orthogonal, and the map from
ensembles to density matrices is many-to-one. Two ensembles are
equivalent exactly when their density matrices coincide.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import numerics
from .errors import (
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
        self.weights = np.asarray(self.weights, dtype=float)
        self.states = np.asarray(self.states, dtype=complex)
        if self.dim <= 0:
            raise InvalidEnsemble("dimension must be positive")
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
    """Hermitian, positive-semidefinite, trace-one operator."""

    dim: int
    matrix: np.ndarray

    def __post_init__(self):
        self.matrix = np.asarray(self.matrix, dtype=complex)
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
        smallest = float(np.min(np.linalg.eigvalsh(self.matrix)))
        if smallest < TOL.eigenvalue_floor:
            raise NotADensityMatrix(
                f"smallest eigenvalue {smallest} is below {TOL.eigenvalue_floor}"
            )


@dataclass
class SpectralEnsemble:
    """The canonical ensemble: eigenvalues with orthonormal eigenvectors.

    Compared with a plain :class:`Ensemble`, the states are pairwise
    orthonormal and the weights are sorted in non-increasing order.
    Degenerate eigenspaces admit any orthonormal basis, so equality of
    spectral ensembles is only meaningful projector-wise.
    """

    base: Ensemble
    rank: int

    def __post_init__(self):
        if self.rank != self.base.size:
            raise InvalidEnsemble(
                f"rank {self.rank} must equal the number of states {self.base.size}"
            )
        w = self.base.weights
        if np.any(np.diff(w) > 0):
            raise InvalidEnsemble("weights must be sorted in non-increasing order")
        gram = self.base.states @ numerics.dag(self.base.states)
        residual = numerics.max_abs(gram - np.eye(self.rank))
        if residual > TOL.orthonormality:
            raise InvalidEnsemble(
                f"states must be pairwise orthonormal within {TOL.orthonormality} "
                f"(residual {residual})"
            )

    @property
    def dim(self) -> int:
        return self.base.dim

    @property
    def weights(self) -> np.ndarray:
        return self.base.weights

    @property
    def states(self) -> np.ndarray:
        return self.base.states


def density_matrix(ensemble: Ensemble) -> DensityMatrix:
    """Sum of weighted projectors onto the ensemble states.

    Invalid ensembles cannot be constructed, so the ``InvalidEnsemble``
    failure mode surfaces at :class:`Ensemble` creation time.
    """
    rho = np.einsum(
        "i,ij,ik->jk", ensemble.weights, ensemble.states, ensemble.states.conj()
    )
    return DensityMatrix(ensemble.dim, rho)


def spectral_ensemble(rho: DensityMatrix) -> SpectralEnsemble:
    """Eigendecompose a density matrix into its canonical ensemble.

    Eigenvalues at or below ``TOL.spectral_cutoff`` are discarded, which
    keeps every retained weight safely away from zero for later weight
    ratios.
    """
    if not isinstance(rho, DensityMatrix):
        raise NotADensityMatrix("expected a DensityMatrix")
    values, vectors = numerics.hermitian_eig(rho.matrix)
    keep = values > TOL.spectral_cutoff
    if not np.any(keep):
        raise NotADensityMatrix("no eigenvalue above the cutoff")
    weights = values[keep]
    states = vectors[:, keep].T
    base = Ensemble(rho.dim, weights, states)
    return SpectralEnsemble(base, rank=int(weights.size))


def density_deviation(e1: Ensemble, e2: Ensemble) -> float:
    """Largest entry of the difference between the two density matrices."""
    if e1.dim != e2.dim:
        raise DimensionMismatch(f"dimensions differ: {e1.dim} vs {e2.dim}")
    return numerics.max_abs(density_matrix(e1).matrix - density_matrix(e2).matrix)


def are_equivalent(e1: Ensemble, e2: Ensemble, tol: float = TOL.equivalence) -> bool:
    """True when the two ensembles share one density matrix within tol."""
    return density_deviation(e1, e2) <= tol


def random_equivalent_ensemble(rho: DensityMatrix, count: int, seed: int) -> Ensemble:
    """Draw a random ensemble of ``count`` states equivalent to ``rho``.

    Mixes the spectral components through a seeded Haar-random unitary:
    the j-th unnormalized state is sum_i sqrt(d_i) U_ij phi_i, and its
    squared norm becomes the j-th weight. Redraws (deterministically from
    the same stream) while any weight falls below 1e-6.
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
        raise RuntimeError("could not draw well-conditioned weights")
    states = unnormalized / np.sqrt(probs)[:, None]
    return Ensemble(rho.dim, probs, states)


def random_state(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Normalized complex Gaussian vector."""
    vec = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    return vec / np.linalg.norm(vec)


def random_ensemble(
    dim: int, count: int, rng: np.random.Generator, min_weight: float = 1e-6
) -> Ensemble:
    """Random mixture of ``count`` independent states with Dirichlet weights."""
    while True:
        weights = rng.dirichlet(np.ones(count))
        if float(weights.min()) >= min_weight:
            break
    states = np.array([random_state(dim, rng) for _ in range(count)])
    return Ensemble(dim, weights, states)


def random_density_matrix(
    dim: int, rank: int, rng: np.random.Generator, min_weight: float = 1e-3
) -> DensityMatrix:
    """Random rank-constrained density matrix with eigenvalues >= min_weight."""
    if not 1 <= rank <= dim:
        raise DimensionMismatch(f"rank must lie in [1, {dim}], got {rank}")
    while True:
        weights = rng.dirichlet(np.ones(rank))
        if float(weights.min()) >= min_weight:
            break
    vectors = numerics.haar_unitary(dim, rng)[:, :rank]
    rho = (vectors * weights) @ numerics.dag(vectors)
    return DensityMatrix(dim, rho)
