"""Weighted pure-state mixtures, their density operators, and the
shared-density-operator equivalence relation.

An :class:`Ensemble` is a finite list of strictly positive weights and
normalized states; the states need not be orthogonal, and the map from
ensembles to density matrices is many-to-one. Two ensembles are
equivalent exactly when their density matrices coincide.
"""

from __future__ import annotations

import functools
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

# Least weight of a drawn equivalent ensemble: it keeps the steering ratios
# sqrt(p_j / d_i) away from zero.
DRAWN_WEIGHT_FLOOR = 1e-6


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
        if not np.isfinite(self.weights).all() or not np.isfinite(self.states).all():
            raise InvalidEnsemble("weights and states must be finite")
        if (self.weights <= 0.0).any():
            raise InvalidEnsemble("weights must be strictly positive")
        total = float(self.weights.sum())
        if abs(total - 1.0) > TOL.weight_sum:
            raise InvalidEnsemble(f"weights sum to {total}, must equal 1 within {TOL.weight_sum}")
        norms = np.linalg.norm(self.states, axis=1)
        worst = float(np.abs(norms - 1.0).max())
        if worst > TOL.norm:
            raise InvalidEnsemble(
                f"every state must be unit norm within {TOL.norm} "
                f"(worst deviation {worst})"
            )

    @property
    def size(self) -> int:
        return int(self.weights.size)

    @functools.cached_property
    def weighted_states(self) -> np.ndarray:
        """X = states^T sqrt(w), d x n, formed once and read-only: XX^H is the density
        matrix, and two ensembles are equivalent iff X_2 = X_1 V, V row-orthonormal."""
        weighted = self.states.T * np.sqrt(self.weights)
        weighted.flags.writeable = False
        return weighted


@dataclass
class DensityMatrix:
    """Hermitian, positive-semidefinite, trace-one operator.

    Validation decomposes the matrix once and keeps its canonical ensemble
    as ``spectral`` (eigenvalues above ``TOL.spectral_cutoff``, descending,
    with their eigenvectors), so an ``InvalidEnsemble`` from it surfaces here.
    """

    dim: int
    matrix: np.ndarray
    spectral: SpectralEnsemble = field(init=False, repr=False)

    def __post_init__(self):
        self.dim = numerics.as_dimension(self.dim, NotADensityMatrix, "dim")
        self.matrix = numerics.as_array(self.matrix)
        if self.matrix.shape != (self.dim, self.dim):
            raise NotADensityMatrix(
                f"matrix must be {self.dim}x{self.dim}, got {self.matrix.shape}"
            )
        if not np.isfinite(self.matrix).all():
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
        self.spectral = _above_cutoff(self.dim, values[::-1], vectors[:, ::-1])


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
        if (np.diff(self.weights) > 0).any():
            raise InvalidEnsemble("weights must be sorted in non-increasing order")
        residual = numerics.row_orthonormality_residual(self.states)
        if residual > TOL.orthonormality:
            raise InvalidEnsemble(
                f"states must be pairwise orthonormal within {TOL.orthonormality} "
                f"(residual {residual})"
            )

    @property
    def rank(self) -> int:
        return self.size


def weighted_projector_sum(ensemble: Ensemble) -> np.ndarray:
    """sum_i w_i |psi_i><psi_i| as one matrix product, (X^T w) @ conj(X) for states X."""
    return (ensemble.states.T * ensemble.weights) @ ensemble.states.conj()


def density_matrix(ensemble: Ensemble) -> DensityMatrix:
    """Sum of weighted projectors onto the ensemble states.

    Invalid ensembles cannot be constructed, so the ``InvalidEnsemble``
    failure mode surfaces at :class:`Ensemble` creation time.
    """
    return DensityMatrix(ensemble.dim, weighted_projector_sum(ensemble))


def spectral_ensemble(source: Ensemble | DensityMatrix) -> SpectralEnsemble:
    """The canonical ensemble of a density matrix, or of an ensemble's.

    Weights at or below ``TOL.spectral_cutoff`` are discarded, which keeps
    every retained weight safely away from zero for later weight ratios.
    For a :class:`DensityMatrix` it is the ensemble built and validated
    when the matrix was admitted. For an :class:`Ensemble` it comes from the
    thin SVD X = U diag(s) V^H of the weighted states, since XX^H is the
    density matrix: the weights are s^2 and the states the columns of U,
    and no d x d matrix is formed. (An eigendecomposition of X^H X would
    square the condition number.)
    """
    if isinstance(source, DensityMatrix):
        return source.spectral
    if not isinstance(source, Ensemble):
        raise NotADensityMatrix("expected a DensityMatrix or an Ensemble")
    vectors, singular, _ = np.linalg.svd(source.weighted_states, full_matrices=False)
    return _above_cutoff(source.dim, singular**2, vectors)


def _above_cutoff(dim: int, values: np.ndarray, vectors: np.ndarray) -> SpectralEnsemble:
    """The spectral ensemble of the descending ``values`` above ``TOL.spectral_cutoff`` and
    their ``vectors`` (columns); a kept sum off 1 by ``TOL.weight_sum`` names the discard."""
    keep = values > TOL.spectral_cutoff
    total = float(values[keep].sum())
    if abs(total - 1.0) > TOL.weight_sum:
        raise InvalidEnsemble(
            f"the spectral cutoff {TOL.spectral_cutoff} discards weight "
            f"{float(values[~keep].sum())}: the kept weights sum to {total}, "
            f"must equal 1 within {TOL.weight_sum}"
        )
    return SpectralEnsemble(dim, values[keep], vectors[:, keep].T)


def density_deviation(e1: Ensemble | DensityMatrix, e2: Ensemble | DensityMatrix) -> float:
    """Largest entry of the difference between the two density matrices.

    Either argument may be a :class:`DensityMatrix`, whose ``matrix`` is
    read, or an ensemble, which is already valid, so no
    :class:`DensityMatrix` is built for it.
    """
    if e1.dim != e2.dim:
        raise DimensionMismatch(f"dimensions differ: {e1.dim} vs {e2.dim}")
    m1, m2 = (e.matrix if isinstance(e, DensityMatrix) else weighted_projector_sum(e)
              for e in (e1, e2))
    return numerics.max_abs(m1 - m2)


def are_equivalent(e1: Ensemble, e2: Ensemble, tol: float = TOL.equivalence) -> bool:
    """True when the two ensembles share one density matrix within tol."""
    return density_deviation(e1, e2) <= tol


def random_equivalent_ensemble(rho: DensityMatrix, count: int, seed: int) -> Ensemble:
    """Draw a random ensemble of ``count`` states equivalent to ``rho``.

    Mixes the spectral components through a seeded Haar-random unitary:
    the j-th unnormalized state is sum_i sqrt(d_i) U_ij phi_i, and its
    squared norm becomes the j-th weight. Redraws (deterministically from
    the same stream) while any weight falls below ``DRAWN_WEIGHT_FLOOR``,
    and raises ``ContractViolation`` after 64 draws. A ``count`` that is not
    a positive integer, or of weights that cannot all clear the floor,
    raises ``InvalidEnsemble`` before any draw.
    """
    spectral = spectral_ensemble(rho)
    count = numerics.as_dimension(count, InvalidEnsemble, "count")
    if count < spectral.rank:
        raise CountTooSmall(f"count {count} is below the density-matrix rank {spectral.rank}")
    _require_floor_fits(count, DRAWN_WEIGHT_FLOOR)
    rng = np.random.default_rng(seed)
    roots = np.sqrt(spectral.weights)
    for _ in range(64):
        mixer = numerics.haar_unitary(count, rng)
        unnormalized = (roots[:, None] * mixer[: spectral.rank, :]).T @ spectral.states
        probs = np.linalg.norm(unnormalized, axis=1) ** 2
        if float(probs.min()) >= DRAWN_WEIGHT_FLOOR:
            break
    else:
        raise ContractViolation("64 draws gave no ensemble whose weights are all at least 1e-6")
    states = unnormalized / np.sqrt(probs)[:, None]
    return Ensemble(rho.dim, probs, states)


def _require_floor_fits(count: int, floor: float) -> None:
    """``InvalidEnsemble`` unless ``count`` weights of at least ``floor`` can sum to 1
    with room to vary."""
    if count * floor >= 1.0:
        raise InvalidEnsemble(f"{count} weights of at least {floor} cannot sum to 1")


def _floored_weights(count: int, floor: float, rng: np.random.Generator) -> np.ndarray:
    """``count`` random weights summing to 1, each at least ``floor``: one Dirichlet draw."""
    _require_floor_fits(count, floor)
    return floor + (1.0 - count * floor) * rng.dirichlet(np.ones(count))


def random_ensemble(
    dim: int, count: int, rng: np.random.Generator, min_weight: float = 1e-6
) -> Ensemble:
    """Random mixture of ``count`` normalized complex Gaussian states.

    The weights are Dirichlet distributed above the floor ``min_weight``. A
    ``dim`` or ``count`` that is not a positive integer raises ``InvalidEnsemble``.
    """
    dim = numerics.as_dimension(dim, InvalidEnsemble, "dim")
    count = numerics.as_dimension(count, InvalidEnsemble, "count")
    weights = _floored_weights(count, min_weight, rng)
    draws = rng.standard_normal((count, 2, dim))  # real then imaginary part, state by state
    states = np.array([v / np.linalg.norm(v) for v in draws[:, 0] + 1j * draws[:, 1]])
    return Ensemble(dim, weights, states)


def random_density_matrix(
    dim: int, rank: int, rng: np.random.Generator, min_weight: float = 1e-3
) -> DensityMatrix:
    """Random rank-constrained density matrix with eigenvalues >= min_weight; a
    ``dim`` or ``rank`` that is not a positive integer, or a ``rank`` above
    ``dim``, raises ``DimensionMismatch`` before any draw."""
    dim = numerics.as_dimension(dim, DimensionMismatch, "dim")
    rank = numerics.as_dimension(rank, DimensionMismatch, "rank")
    if rank > dim:
        raise DimensionMismatch(f"rank must lie in [1, {dim}], got {rank}")
    weights = _floored_weights(rank, min_weight, rng)
    vectors = numerics.haar_unitary(dim, rng)[:, :rank]
    rho = (vectors * weights) @ numerics.dag(vectors)
    return DensityMatrix(dim, rho)
