"""Purification of a spectral ensemble and measurement-based steering.

The construction enlarges the system S by a finite reference space K,
forms the pure state sum_i sqrt(d_i) phi_i (x) e_i, and recovers any
equivalent ensemble by measuring a suitable orthonormal basis of K. The
basis comes from a row-orthonormal coefficient matrix: its rows mix the
orthonormal spectral states into the (generally non-orthogonal) target
states, and completing it to a unitary fixes the measurement directions.

Reference-space conventions: the correlated reference states are the
standard basis vectors of K, with e_0 doubling as the ready state, and
joint amplitudes are stored row-major, (s, k) -> s * dim_k + k.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import numerics
from .ensembles import Ensemble, SpectralEnsemble, are_equivalent
from .errors import (
    BasisNotComplete,
    BasisNotOrthonormal,
    ContractViolation,
    DimensionMismatch,
    NotEquivalent,
    NotSquare,
    ReferenceTooSmall,
    TargetOutsideSupport,
)
from .numerics import TOL
from .reports import Check, Report


@dataclass
class BipartiteState:
    """Pure state of the joint system S (x) K."""

    dim_s: int
    dim_k: int
    amplitudes: np.ndarray

    def __post_init__(self):
        self.amplitudes = numerics.as_state(self.amplitudes)
        if self.amplitudes.size != self.dim_s * self.dim_k:
            raise DimensionMismatch(
                f"amplitude count {self.amplitudes.size} is not "
                f"{self.dim_s} x {self.dim_k}"
            )

    def as_grid(self) -> np.ndarray:
        """Amplitudes reshaped to (dim_s, dim_k)."""
        return self.amplitudes.reshape(self.dim_s, self.dim_k)

    def reduced_system(self) -> np.ndarray:
        """Density matrix of S after tracing out the reference."""
        grid = self.as_grid()
        return grid @ grid.conj().T


@dataclass
class SteeringPlan:
    """Everything needed to steer the purified state into a target ensemble.

    ``coeffs`` expands each target state over the spectral states
    (entry [j, i] = <phi_i|tau_j>); ``isometry`` is the row-orthonormal
    weight-ratio matrix built from it; ``unitary`` embeds the isometry as
    its leading rows. This is the one place a plan's orthonormality is
    checked: the isometry rows within ``TOL.isometry``, and that
    ``unitary`` is square and unitary within ``TOL.plan_unitarity``.
    """

    coeffs: np.ndarray
    isometry: np.ndarray
    unitary: np.ndarray

    def __post_init__(self):
        self.coeffs = numerics.as_matrix(self.coeffs)
        self.isometry = numerics.as_matrix(self.isometry)
        self.unitary = numerics.as_matrix(self.unitary)
        rows = self.isometry.shape[0]
        residual = numerics.max_abs(
            self.isometry @ numerics.dag(self.isometry) - np.eye(rows)
        )
        self._isometry_residual = residual
        if residual > TOL.isometry:
            raise ContractViolation(
                f"isometry rows deviate from orthonormality by {residual} "
                f"(tol {TOL.isometry})"
            )
        side, width = self.unitary.shape
        if side != width:
            raise NotSquare(f"completed matrix is {side}x{width}, must be square")
        u_residual = numerics.max_abs(
            self.unitary @ numerics.dag(self.unitary) - np.eye(side)
        )
        if u_residual > TOL.plan_unitarity:
            raise ContractViolation(
                f"completed matrix deviates from unitarity by {u_residual} "
                f"(tol {TOL.plan_unitarity})"
            )

    @property
    def dim_k(self) -> int:
        return int(self.unitary.shape[0])

    @property
    def basis(self) -> np.ndarray:
        """Measurement directions B_j of K as rows, B_j = conjugated column j of ``unitary``."""
        return self.unitary.conj().T

    @property
    def isometry_residual(self) -> float:
        """Largest deviation of isometry @ isometry^H from the identity, as validated."""
        return self._isometry_residual


@dataclass
class MeasurementOutcome:
    """One projective outcome on the reference: index, probability, post-state of S.

    A plain record; :func:`measure_reference` or :class:`SteeringPlan`
    validates what it is built from.
    """

    index: int
    probability: float
    post_state: np.ndarray

    def __post_init__(self):
        self.post_state = numerics.as_array(self.post_state)


@dataclass
class PreparationReport(Report):
    """Maximum deviations of a steered preparation from its target."""

    weight_deviation: float
    state_infidelity: float
    isometry_residual: float
    reconstruction_residual: float
    tol: float = TOL.equivalence

    def checks(self) -> list[Check]:
        return [
            Check("max weight deviation", self.weight_deviation, self.tol),
            Check("max state infidelity", self.state_infidelity, self.tol),
            Check("isometry residual", self.isometry_residual, TOL.isometry),
            Check("purified-state reconstruction residual", self.reconstruction_residual, self.tol),
        ]


def purify(spectral: SpectralEnsemble, dim_k: int | None = None) -> BipartiteState:
    """Entangle each spectral state with its own reference direction.

    Returns sum_i sqrt(d_i) phi_i (x) e_i on S (x) K; tracing out K gives
    back the density matrix of the input.
    """
    if dim_k is None:
        dim_k = spectral.rank
    if dim_k < spectral.rank:
        raise ReferenceTooSmall(
            f"reference dimension {dim_k} is below the rank {spectral.rank}"
        )
    grid = np.zeros((spectral.dim, dim_k), dtype=complex)
    grid[:, : spectral.rank] = spectral.states.T * np.sqrt(spectral.weights)
    return BipartiteState(spectral.dim, dim_k, grid.reshape(-1))


def steering_coefficients(
    spectral: SpectralEnsemble, target: Ensemble, tol: float = TOL.equivalence
) -> np.ndarray:
    """Expand each target state over the orthonormal spectral states.

    Returns the matrix with entry [j, i] = <phi_i|tau_j>. Every target
    state must lie in the span of the spectral states up to ``tol``,
    which equivalence guarantees mathematically.
    """
    if not are_equivalent(spectral.base, target, tol):
        raise NotEquivalent(
            f"target ensemble does not match the spectral density matrix within {tol}"
        )
    coeffs = target.states @ spectral.states.conj().T
    residuals = np.linalg.norm(target.states - coeffs @ spectral.states, axis=1)
    worst = int(np.argmax(residuals))
    if residuals[worst] > tol:
        raise TargetOutsideSupport(
            f"target state {worst} sticks out of the support by {residuals[worst]} "
            f"(tol {tol})"
        )
    return coeffs


def steering_isometry(
    spectral: SpectralEnsemble,
    target: Ensemble,
    tol: float = TOL.equivalence,
    dim_k: int | None = None,
) -> SteeringPlan:
    """Build the full steering plan for an equivalent target ensemble.

    The isometry entry [i, j] is sqrt(p_j / d_i) times coeffs[j, i]; its
    rows are orthonormal because both ensembles share one density matrix.
    The rows are zero-padded to ``dim_k`` and completed by
    :func:`numerics.gram_schmidt_complete`; :class:`SteeringPlan` checks
    the rows and that the completed matrix, whose conjugated columns are
    the measurement basis vectors, is unitary. The purified state
    has no amplitude on e_k from the rank onward, so no outcome depends on
    how the completion fills the unitary's rows k >= rank.
    """
    coeffs = steering_coefficients(spectral, target, tol)
    n_rows = spectral.rank
    n_cols = target.size
    if dim_k is None:
        dim_k = max(n_rows, n_cols)
    if dim_k < max(n_rows, n_cols):
        raise ReferenceTooSmall(
            f"reference dimension {dim_k} is below max(rank, target size) = "
            f"{max(n_rows, n_cols)}"
        )
    ratios = np.sqrt(target.weights)[None, :] / np.sqrt(spectral.weights)[:, None]
    isometry = ratios * coeffs.T
    padded = np.zeros((n_rows, dim_k), dtype=complex)
    padded[:, :n_cols] = isometry
    unitary = numerics.gram_schmidt_complete(padded, dim_k)
    return SteeringPlan(coeffs=coeffs, isometry=isometry, unitary=unitary)


def measure_reference(psi: BipartiteState, basis) -> list[MeasurementOutcome]:
    """Measure a complete orthonormal basis of the reference, given as rows.

    For each basis vector b_j the unnormalized post-state of S is
    (I (x) <b_j|) psi; its squared norm is the outcome probability.
    Outcomes below ``TOL.outcome_floor`` are dropped. The probabilities
    sum to 1 up to how far the basis is from orthonormal: within
    ``TOL.orthonormality`` here, ``TOL.plan_unitarity`` through the plan
    that :func:`prepare_ensemble` measures with.
    """
    rows = numerics.as_array(basis)
    if rows.ndim != 2 or rows.shape[1] != psi.dim_k:
        raise BasisNotComplete(
            f"basis must consist of vectors of length {psi.dim_k}"
        )
    if rows.shape[0] != psi.dim_k:
        raise BasisNotComplete(
            f"basis has {rows.shape[0]} vectors, the reference needs {psi.dim_k}"
        )
    rows = numerics.as_matrix(rows)  # NotFinite: the Gram check cannot see NaN
    gram = rows @ numerics.dag(rows)
    if numerics.max_abs(gram - np.eye(psi.dim_k)) > TOL.orthonormality:
        raise BasisNotOrthonormal(
            f"basis vectors are not pairwise orthonormal within {TOL.orthonormality}"
        )
    return _outcomes(*_measure(psi, rows.conj().T))


def _measure(
    psi: BipartiteState, columns: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Measure b_j on the reference, column j of ``columns`` being conj(b_j).

    Returns the indices of the outcomes at or above ``TOL.outcome_floor``,
    their probabilities, and their normalized post-states as rows.
    """
    unnormalized = psi.as_grid() @ columns  # column j = (I (x) <b_j|) psi
    probs = np.sum(np.abs(unnormalized) ** 2, axis=0)
    kept = np.flatnonzero(probs >= TOL.outcome_floor)
    return kept, probs[kept], unnormalized.T[kept] / np.sqrt(probs[kept])[:, None]


def _outcomes(kept, probs, posts) -> list[MeasurementOutcome]:
    """One record per kept outcome, from the arrays :func:`_measure` returns."""
    return [MeasurementOutcome(int(j), float(p), post) for j, p, post in zip(kept, probs, posts)]


def measured_ensemble(psi: BipartiteState, basis) -> Ensemble:
    """The S-ensemble a complete reference measurement prepares."""
    outcomes = measure_reference(psi, basis)
    weights = np.array([o.probability for o in outcomes])
    states = np.array([o.post_state for o in outcomes])
    return Ensemble(psi.dim_s, weights, states)


def prepare_ensemble(
    spectral: SpectralEnsemble,
    target: Ensemble,
    dim_k: int | None = None,
    tol: float = TOL.equivalence,
) -> tuple[SteeringPlan, list[MeasurementOutcome], PreparationReport]:
    """Purify, steer, and measure so the target ensemble is recovered.

    Outcome j reproduces the j-th target weight and state (up to a global
    phase); the report collects the four maximum deviations.
    """
    plan = steering_isometry(spectral, target, tol=tol, dim_k=dim_k)
    psi = purify(spectral, plan.dim_k)
    kept, kept_probs, posts = _measure(psi, plan.unitary)

    probs = np.zeros(plan.dim_k)
    probs[kept] = kept_probs
    expected = np.zeros(plan.dim_k)
    expected[: target.size] = target.weights
    weight_deviation = numerics.max_abs(probs - expected)

    # |<post_j|tau_j>| over the reached target outcomes; a target weight
    # below the outcome floor leaves its outcome unreached
    reached = kept < target.size
    overlaps = np.abs(np.sum(posts[reached].conj() * target.states[kept[reached]], axis=1))
    infidelity = np.max(1.0 - overlaps, initial=0.0)

    # sum_j sqrt(p_j) tau_j (x) B_j, as a (dim_s, dim_k) grid flattened row-major
    weighted = target.states.T * np.sqrt(target.weights)
    rebuilt = (weighted @ plan.basis[: target.size]).reshape(-1)
    reconstruction = numerics.max_abs(psi.amplitudes - rebuilt)

    report = PreparationReport(
        weight_deviation=float(weight_deviation),
        state_infidelity=float(infidelity),
        isometry_residual=float(plan.isometry_residual),
        reconstruction_residual=float(reconstruction),
        tol=tol,
    )
    return plan, _outcomes(kept, kept_probs, posts), report
