"""Purification of a spectral ensemble and measurement-based steering.

The construction enlarges the system S by a finite reference space K,
forms the pure state sum_i sqrt(d_i) phi_i (x) e_i, and recovers any
equivalent ensemble by measuring a suitable orthonormal basis of K. The
basis comes from a row-orthonormal coefficient matrix, the isometry: its
rows mix the orthonormal spectral states into the (generally
non-orthogonal) target states. The purified state has no amplitude beyond
the rank, so outcome j depends only on column j of the isometry
(Hughston, Jozsa and Wootters, Phys. Lett. A 183, 1993); completing the
isometry to a unitary fixes the other measurement directions, which only
a plan file needs.

Reference-space conventions: the correlated reference states are the
standard basis vectors of K, with e_0 doubling as the ready state, and
joint amplitudes are stored row-major, (s, k) -> s * dim_k + k.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

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
        self.dim_s = numerics.as_dimension(self.dim_s, DimensionMismatch, "dim_s")
        self.dim_k = numerics.as_dimension(self.dim_k, DimensionMismatch, "dim_k")
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


class _Unitary:
    """``SteeringPlan.unitary``: the unitary given to the constructor, or else
    the completion of the zero-padded isometry, checked on first read and
    then kept."""

    def __get__(self, plan, owner=None):
        if plan is None:
            return None  # the dataclass default: no unitary given
        if plan._unitary is None:
            completed = numerics.gram_schmidt_complete(plan._padded_isometry())
            plan._check_unitary(completed)
            plan._unitary = completed
        return plan._unitary

    def __set__(self, plan, unitary):
        plan._unitary = unitary


@dataclass
class SteeringPlan:
    """Everything needed to steer the purified state into a target ensemble.

    ``coeffs`` expands each target state over the spectral states
    (entry [j, i] = <phi_i|tau_j>); ``isometry`` is the row-orthonormal
    weight-ratio matrix built from it, and its columns are all that
    :func:`prepare_ensemble` measures with. ``unitary`` embeds the
    zero-padded isometry as its leading rows; its conjugated columns are
    the measurement basis of K. ``dim_k`` defaults to the side of a given
    unitary, else to the isometry's width, and a smaller ``dim_k`` raises
    ``ReferenceTooSmall``.

    This is the one place a plan's orthonormality is checked: the isometry
    rows within ``TOL.isometry`` at construction, and the unitary by
    :meth:`_check_unitary` wherever it exists. A unitary passed in is
    checked at construction. Without one, ``unitary`` is completed from the
    isometry by :func:`numerics.gram_schmidt_complete` and checked on first
    read, so a plan that is only measured forms no dim_k x dim_k matrix.
    """

    coeffs: np.ndarray
    isometry: np.ndarray
    unitary: np.ndarray | None = _Unitary()
    dim_k: int | None = None

    def __post_init__(self):
        self.coeffs = numerics.as_matrix(self.coeffs)
        self.isometry = numerics.as_matrix(self.isometry)
        rows, width = self.isometry.shape
        residual = numerics.max_abs(
            self.isometry @ numerics.dag(self.isometry) - np.eye(rows)
        )
        self._isometry_residual = residual
        if residual > TOL.isometry:
            raise ContractViolation(
                f"isometry rows deviate from orthonormality by {residual} "
                f"(tol {TOL.isometry})"
            )
        if self._unitary is not None:
            self._unitary = numerics.as_matrix(self._unitary)
            if self.dim_k is None:
                self.dim_k = len(self._unitary)
            self._check_unitary(self._unitary)
        elif self.dim_k is None:
            self.dim_k = width
        elif self.dim_k < width:
            raise ReferenceTooSmall(
                f"isometry has {width} columns, more than the reference dimension {self.dim_k}"
            )

    def _padded_isometry(self) -> np.ndarray:
        padded = np.zeros((self.isometry.shape[0], self.dim_k), dtype=complex)
        padded[:, : self.isometry.shape[1]] = self.isometry
        return padded

    def _check_unitary(self, unitary: np.ndarray) -> None:
        """Raise unless ``unitary`` is square of side ``dim_k``, holds the
        zero-padded isometry as its leading rows within ``TOL.orthonormality``
        and is unitary within ``TOL.plan_unitarity``."""
        side, width = unitary.shape
        if side != width:
            raise NotSquare(f"completed matrix is {side}x{width}, must be square")
        rows, cols = self.isometry.shape
        if side != self.dim_k or cols > side:
            raise DimensionMismatch(
                f"a {side}x{side} unitary cannot embed a {rows}x{cols} isometry "
                f"on a reference of dimension {self.dim_k}"
            )
        embedding = numerics.max_abs(unitary[:rows] - self._padded_isometry())
        if embedding > TOL.orthonormality:
            raise ContractViolation(
                f"leading rows of the completed matrix deviate from the isometry by "
                f"{embedding} (tol {TOL.orthonormality})"
            )
        u_residual = numerics.max_abs(unitary @ numerics.dag(unitary) - np.eye(side))
        if u_residual > TOL.plan_unitarity:
            raise ContractViolation(
                f"completed matrix deviates from unitarity by {u_residual} "
                f"(tol {TOL.plan_unitarity})"
            )

    @property
    def basis(self) -> np.ndarray:
        """Measurement directions B_j of K as rows, B_j = conjugated column j of ``unitary``."""
        return self.unitary.conj().T

    @property
    def isometry_residual(self) -> float:
        """Largest deviation of isometry @ isometry^H from the identity, as validated."""
        return self._isometry_residual


class MeasurementOutcome(NamedTuple):
    """One projective outcome on the reference: index, probability, post-state of S.

    A plain record; :func:`measure_reference` or :class:`SteeringPlan`
    validates what it is built from.
    """

    index: int
    probability: float
    post_state: np.ndarray


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
    if not are_equivalent(spectral, target, tol):
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
    :class:`SteeringPlan` checks the rows and ``dim_k``. The plan completes
    the rows, zero-padded to ``dim_k``, to a unitary only when its
    ``unitary`` or ``basis`` is read. The purified state has no amplitude on e_k from
    the rank onward, so no outcome depends on how the completion fills
    the unitary's rows k >= rank.
    """
    coeffs = steering_coefficients(spectral, target, tol)
    ratios = np.sqrt(target.weights)[None, :] / np.sqrt(spectral.weights)[:, None]
    return SteeringPlan(coeffs=coeffs, isometry=ratios * coeffs.T, dim_k=dim_k)


def measure_reference(psi: BipartiteState, basis) -> list[MeasurementOutcome]:
    """Measure a complete orthonormal basis of the reference, given as rows.

    For each basis vector b_j the unnormalized post-state of S is
    (I (x) <b_j|) psi; its squared norm is the outcome probability.
    Outcomes below ``TOL.outcome_floor`` are dropped. The probabilities
    sum to 1 up to how far the basis is from orthonormal: within
    ``TOL.orthonormality`` here, ``TOL.isometry`` through the plan that
    :func:`prepare_ensemble` measures with.
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
    return _outcomes(*_measure(psi.as_grid(), rows.conj().T))


def _measure(grid: np.ndarray, columns: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Measure b_j on the reference of the amplitude grid, column j of ``columns`` being conj(b_j).

    ``grid`` may leave out reference columns on which the state has no
    amplitude, if ``columns`` leaves out the same rows. Returns the indices
    of the outcomes at or above ``TOL.outcome_floor``, their probabilities,
    and their normalized post-states as rows.
    """
    unnormalized = grid @ columns  # column j = (I (x) <b_j|) psi
    probs = np.sum(np.abs(unnormalized) ** 2, axis=0)
    kept = np.flatnonzero(probs >= TOL.outcome_floor)
    return kept, probs[kept], unnormalized.T[kept] / np.sqrt(probs[kept])[:, None]


def _outcomes(kept, probs, posts) -> list[MeasurementOutcome]:
    """One record per kept outcome, from the arrays :func:`_measure` returns."""
    return list(map(MeasurementOutcome, kept.tolist(), probs.tolist(), posts))


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
    phase); the report collects the four maximum deviations. The purified
    state lives on the first ``rank`` reference columns, so only those and
    the isometry's n columns are measured: the outcomes from n to dim_k
    have zero amplitude.
    """
    plan = steering_isometry(spectral, target, tol=tol, dim_k=dim_k)
    grid = purify(spectral).as_grid()  # the rank reference columns, which carry all amplitude
    kept, kept_probs, posts = _measure(grid, plan.isometry)

    probs = np.zeros(target.size)
    probs[kept] = kept_probs
    weight_deviation = numerics.max_abs(probs - target.weights)

    # |<post_j|tau_j>| over the reached outcomes; a target weight below the
    # outcome floor leaves its outcome unreached
    overlaps = np.minimum(np.abs(np.sum(posts.conj() * target.states[kept], axis=1)), 1.0)
    infidelity = np.max(1.0 - overlaps, initial=0.0)

    # sum_j sqrt(p_j) tau_j (x) B_j on the rank columns: B_j restricted to
    # them is conjugated column j of the isometry
    weighted = target.states.T * np.sqrt(target.weights)
    reconstruction = numerics.max_abs(grid - weighted @ numerics.dag(plan.isometry))

    report = PreparationReport(
        weight_deviation=float(weight_deviation),
        state_infidelity=float(infidelity),
        isometry_residual=float(plan.isometry_residual),
        reconstruction_residual=float(reconstruction),
        tol=tol,
    )
    return plan, _outcomes(kept, kept_probs, posts), report
