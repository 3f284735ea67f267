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
a plan file needs. Steering forms the isometry's row Gram once, to prove
equivalence and to admit the plan, and the measured outcomes once, as
rows, from which it reads the support residuals, the probabilities and
the post-states. A measurement returns one :class:`Outcomes` record of
arrays, whose per-outcome records are built only when they are read.

Reference-space conventions: the correlated reference states are the
standard basis vectors of K, with e_0 doubling as the ready state, and
joint amplitudes are stored row-major, (s, k) -> s * dim_k + k.
"""

from __future__ import annotations

import functools
from collections.abc import Sequence
from dataclasses import dataclass, field
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


@dataclass
class SteeringPlan:
    """Everything needed to steer the purified state into a target ensemble.

    ``coeffs`` expands each target state over the spectral states
    (entry [j, i] = <phi_i|tau_j>); ``isometry`` is the row-orthonormal
    weight-ratio matrix built from it, and its columns are all that
    :func:`prepare_ensemble` measures with. ``dim_k`` is a positive integer
    (else ``DimensionMismatch``), by default the isometry's width, and one
    below that width raises ``ReferenceTooSmall``. ``coeffs`` must have the
    isometry's shape transposed (else ``DimensionMismatch``).

    This is the one place a plan's orthonormality is checked: the isometry
    rows within ``TOL.isometry`` at construction, and the unitary by
    :meth:`set_unitary`. :func:`steering_isometry` admits its plan through
    the same checks, from the row Gram it has already formed. ``unitary``
    is completed from the isometry by :func:`numerics.gram_schmidt_complete`
    and checked on first read, so a plan that is only measured forms no
    dim_k x dim_k matrix; a plan file's unitary is checked and kept as read.
    """

    coeffs: np.ndarray
    isometry: np.ndarray
    dim_k: int | None = None
    # largest deviation of isometry @ isometry^H from the identity, as validated
    isometry_residual: float = field(init=False)

    def __post_init__(self):
        self.coeffs = numerics.as_matrix(self.coeffs)
        self.isometry = numerics.as_matrix(self.isometry)
        self._admit(numerics.row_orthonormality_residual(self.isometry))

    @classmethod
    def _steered(cls, coeffs, isometry, gram, dim_k) -> SteeringPlan:
        """The plan of :func:`steering_isometry`, admitted by the checks of the
        constructor: its arrays come finite and 2-D from admitted ensembles, and
        ``gram`` is the isometry's row Gram deviation it has already formed."""
        plan = cls.__new__(cls)
        plan.coeffs, plan.isometry, plan.dim_k = coeffs, isometry, dim_k
        plan._admit(numerics.max_abs(gram))
        return plan

    def _admit(self, residual: float) -> None:
        """Check the isometry ``residual``, then ``dim_k``, then the coeffs' shape."""
        width = self.isometry.shape[1]
        self.isometry_residual = residual
        if residual > TOL.isometry:
            raise ContractViolation(
                f"isometry rows deviate from orthonormality by {residual} (tol {TOL.isometry})"
            )
        if self.dim_k is None:
            self.dim_k = width
        self.dim_k = numerics.as_dimension(self.dim_k, DimensionMismatch, "dim_k")
        if self.dim_k < width:
            raise ReferenceTooSmall(
                f"isometry has {width} columns, more than the reference dimension {self.dim_k}"
            )
        if self.coeffs.shape != self.isometry.shape[::-1]:
            raise DimensionMismatch(
                f"coeffs have shape {self.coeffs.shape}, not the isometry's "
                f"shape {self.isometry.shape} transposed"
            )

    def _padded_isometry(self) -> np.ndarray:
        padded = np.zeros((self.isometry.shape[0], self.dim_k), dtype=complex)
        padded[:, : self.isometry.shape[1]] = self.isometry
        return padded

    @functools.cached_property
    def unitary(self) -> np.ndarray:
        """The zero-padded isometry completed to a unitary and checked by
        :meth:`set_unitary`; its conjugated columns are the measurement basis of K.
        A ``dim_k`` whose unitary numpy cannot address raises ``DimensionMismatch``."""
        numerics.require_addressable(self.dim_k, self.dim_k, "plan unitary")
        return self.set_unitary(numerics.gram_schmidt_complete(self._padded_isometry()))

    def set_unitary(self, unitary) -> np.ndarray:
        """Keep ``unitary`` as the plan's ``unitary`` and return it, once it is
        square of side ``dim_k`` (else ``NotSquare``), holds the zero-padded
        isometry as its leading rows within ``TOL.orthonormality`` and is
        unitary within ``TOL.plan_unitarity`` (else ``ContractViolation``)."""
        unitary = numerics.as_matrix(unitary)
        if unitary.shape != (self.dim_k, self.dim_k):
            side, width = unitary.shape
            raise NotSquare(f"plan unitary is {side}x{width}, must be square of side {self.dim_k}")
        embedding = numerics.max_abs(unitary[: len(self.isometry)] - self._padded_isometry())
        if embedding > TOL.orthonormality:
            raise ContractViolation(
                f"leading rows of the plan unitary deviate from the isometry by "
                f"{embedding} (tol {TOL.orthonormality})"
            )
        residual = numerics.row_orthonormality_residual(unitary)
        if residual > TOL.plan_unitarity:
            raise ContractViolation(
                f"plan unitary deviates from unitarity by {residual} "
                f"(tol {TOL.plan_unitarity})"
            )
        self.__dict__["unitary"] = unitary
        return unitary


class MeasurementOutcome(NamedTuple):
    """One projective outcome on the reference: index, probability, post-state of S.

    A plain record; :func:`measure_reference` or :class:`SteeringPlan`
    validates what it is built from.
    """

    index: int
    probability: float
    post_state: np.ndarray


@dataclass(frozen=True, eq=False)
class Outcomes(Sequence):
    """The kept outcomes of one reference measurement, as three arrays.

    ``indices`` holds the kept outcome indices in increasing order,
    ``probabilities`` their probabilities and ``post_states`` their
    normalized post-states of S as rows. Indexing or iterating gives one
    :class:`MeasurementOutcome` per kept outcome, in index order; the
    records are built on first read.
    """

    indices: np.ndarray
    probabilities: np.ndarray
    post_states: np.ndarray

    def __len__(self) -> int:
        return len(self.indices)

    def __getitem__(self, item):
        return self._records[item]

    def __iter__(self):
        return iter(self._records)

    @functools.cached_property
    def _records(self) -> list[MeasurementOutcome]:
        return list(map(
            MeasurementOutcome, self.indices.tolist(), self.probabilities.tolist(), self.post_states
        ))


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

    Returns sum_i sqrt(d_i) phi_i (x) e_i on S (x) K, the weighted state
    matrix zero-padded to ``dim_k`` columns; tracing out K gives back the
    density matrix of the input. A ``dim_k`` whose grid numpy cannot
    address raises ``DimensionMismatch`` before any allocation.
    """
    if dim_k is None:
        dim_k = spectral.rank
    dim_k = numerics.as_dimension(dim_k, DimensionMismatch, "dim_k")
    if dim_k < spectral.rank:
        raise ReferenceTooSmall(f"reference dimension {dim_k} is below the rank {spectral.rank}")
    numerics.require_addressable(spectral.dim, dim_k, "amplitude grid")
    grid = np.zeros((spectral.dim, dim_k), dtype=complex)
    grid[:, : spectral.rank] = spectral.weighted_states
    return BipartiteState(spectral.dim, dim_k, grid.reshape(-1))


def steering_coefficients(
    spectral: SpectralEnsemble, target: Ensemble, tol: float = TOL.equivalence
) -> np.ndarray:
    """Expand each target state over the orthonormal spectral states.

    Returns the matrix C with entry [j, i] = <phi_i|tau_j>. The target must
    share the spectral density matrix within ``tol`` (else
    ``NotEquivalent``), and every target state must lie in the span of the
    spectral states up to ``tol`` (else ``TargetOutsideSupport``), which
    equivalence guarantees mathematically.
    """
    return _steering_arrays(spectral, target, tol)[0]


def _steering_arrays(
    spectral: SpectralEnsemble, target: Ensemble, tol: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """C, the isometry A of :func:`steering_isometry`, its row Gram deviation
    E = AA^H - I, its adjoint A^H and the outcome rows U = A^T X^T of the
    weighted states X, after the checks of :func:`steering_coefficients`.

    Row j of U is (I (x) <b_j|) psi, b_j being conjugated column j of A, and
    equals sqrt(p_j) a_j for the projection a_j = sum_i C[j, i] phi_i of
    tau_j: the residuals r_j = ||tau_j - a_j|| are read from U, which
    :func:`prepare_ensemble` then measures. Equivalence is first proven in the
    rank space, from E and r. With D = diag(d), M = D^1/2 (E + I) D^1/2 =
    (C^T p) @ conj(C) and

        rho_s - rho_t = sum_ik (D - M)[i, k] |phi_i><phi_k|
                        - sum_j p_j (|a_j><r_j| + |r_j><a_j| + |r_j><r_j|).

    An entry of the first sum is at most ||D - M||_2 <= ||D^1/2 E D^1/2||_F,
    since sum_i |phi_i[s]|^2 <= 1; an entry of the second is at most
    sum_j p_j r_j (2 + r_j), since ||a_j|| <= 1. Their sum, the bound, caps
    the largest entry of rho_s - rho_t, so a bound within ``tol / 2`` (the
    half leaves room for rounding) proves that :func:`are_equivalent`
    would accept. Otherwise, or for a NaN bound, :func:`are_equivalent`
    decides on the two d x d matrices, so the bound never changes a decision.
    """
    if spectral.dim != target.dim:
        raise DimensionMismatch(f"dimensions differ: {spectral.dim} vs {target.dim}")
    coeffs = target.states @ spectral.states.conj().T
    roots, scales = np.sqrt(spectral.weights), np.sqrt(target.weights)
    isometry = (scales[None, :] / roots[:, None]) * coeffs.T
    adjoint = isometry.conj().T
    gram = numerics.row_gram_deviation(isometry, adjoint)
    rows = isometry.T @ spectral.weighted_states.T
    gaps = rows.view(float) * (1.0 / scales)[:, None]  # a_j, then tau_j - a_j
    np.subtract(target.states, gaps.view(complex), out=gaps.view(complex))
    residuals = np.sqrt(np.einsum("ij,ij->i", gaps, gaps))
    bound = _equivalence_bound(roots, gram, target.weights, residuals)
    if not bound <= tol / 2 and not are_equivalent(spectral, target, tol):
        raise NotEquivalent(
            f"target ensemble does not match the spectral density matrix within {tol}"
        )
    worst = int(np.argmax(residuals))
    if residuals[worst] > tol:
        raise TargetOutsideSupport(
            f"target state {worst} sticks out of the support by {residuals[worst]} "
            f"(tol {tol})"
        )
    return coeffs, isometry, gram, adjoint, rows


def _equivalence_bound(
    roots: np.ndarray, gram: np.ndarray, weights: np.ndarray, residuals: np.ndarray
) -> float:
    """||D^1/2 E D^1/2||_F + sum_j p_j r_j (2 + r_j), the rank-space bound on
    ``density_deviation(spectral, target)`` of :func:`_steering_arrays`, from the spectral
    ``roots`` sqrt(d) and the target ``weights`` p; ||.||_F^2 = sum_ik d_i d_k |E[i, k]|^2."""
    spectrum = roots * roots
    gap = np.sqrt(spectrum @ gram.view(float) ** 2 @ np.repeat(spectrum, 2))
    return float(gap + (weights * residuals * (2.0 + residuals)).sum())


def steering_isometry(
    spectral: SpectralEnsemble,
    target: Ensemble,
    tol: float = TOL.equivalence,
    dim_k: int | None = None,
) -> SteeringPlan:
    """Build the full steering plan for an equivalent target ensemble.

    The isometry entry [i, j] is sqrt(p_j / d_i) times coeffs[j, i]; its
    rows are orthonormal because both ensembles share one density matrix.
    The plan checks the rows, from the row Gram the equivalence bound has
    already formed, and ``dim_k``, as :class:`SteeringPlan` does. The plan
    completes the rows, zero-padded to ``dim_k``, to a unitary only when its
    ``unitary`` is read. The purified state has no amplitude on e_k from
    the rank onward, so no outcome depends on how the completion fills
    the unitary's rows k >= rank.
    """
    return SteeringPlan._steered(*_steering_arrays(spectral, target, tol)[:3], dim_k)


def measure_reference(psi: BipartiteState, basis) -> Outcomes:
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
        raise BasisNotComplete(f"basis must consist of vectors of length {psi.dim_k}")
    if rows.shape[0] != psi.dim_k:
        raise BasisNotComplete(
            f"basis has {rows.shape[0]} vectors, the reference needs {psi.dim_k}"
        )
    rows = numerics.as_matrix(rows)  # NotFinite: the Gram check cannot see NaN
    if numerics.row_orthonormality_residual(rows) > TOL.orthonormality:
        raise BasisNotOrthonormal(
            f"basis vectors are not pairwise orthonormal within {TOL.orthonormality}"
        )
    return _measure(rows.conj() @ psi.as_grid().T)


def _measure(rows: np.ndarray) -> Outcomes:
    """The kept outcomes of a reference measurement, given as ``rows``: row j is
    (I (x) <b_j|) psi = directions[j] @ grid.T, the directions conj(b_j) being
    ``basis.conj()`` in :func:`measure_reference` and the isometry's transpose
    in :func:`prepare_ensemble`. Keeps the outcomes at or above
    ``TOL.outcome_floor`` and scales their rows to unit norm in place, so when
    every outcome is kept the post-states are ``rows`` itself, with no copy.
    """
    probs = np.einsum("ij,ij->i", rows.view(float), rows.view(float))  # over real pairs
    kept = np.flatnonzero(probs >= TOL.outcome_floor)
    if len(kept) < len(probs):
        probs, rows = probs[kept], rows[kept]
    np.multiply(rows.view(float), (1.0 / np.sqrt(probs))[:, None], out=rows.view(float))
    return Outcomes(kept, probs, rows)


def measured_ensemble(psi: BipartiteState, basis) -> Ensemble:
    """The S-ensemble a complete reference measurement prepares."""
    outcomes = measure_reference(psi, basis)
    return Ensemble(psi.dim_s, outcomes.probabilities, outcomes.post_states)


def prepare_ensemble(
    spectral: SpectralEnsemble,
    target: Ensemble,
    dim_k: int | None = None,
    tol: float = TOL.equivalence,
) -> tuple[SteeringPlan, Outcomes, PreparationReport]:
    """Purify, steer, and measure so the target ensemble is recovered.

    Outcome j reproduces the j-th target weight and state (up to a global
    phase); the report collects the four maximum deviations. The purified
    state lives on the first ``rank`` reference columns, so only those and
    the isometry's n columns are measured: the outcomes from n to dim_k
    have zero amplitude.
    """
    *arrays, adjoint, rows = _steering_arrays(spectral, target, tol)
    plan, outcomes = SteeringPlan._steered(*arrays, dim_k), _measure(rows)

    # a target weight below the outcome floor leaves its outcome unreached:
    # its probability counts as 0, and its state is not compared
    probs, states = outcomes.probabilities, target.states
    if len(outcomes) < target.size:
        probs = np.zeros(target.size)
        probs[outcomes.indices] = outcomes.probabilities
        states = states[outcomes.indices]
    weight_deviation = numerics.max_abs(probs - target.weights)

    # |<post_j|tau_j>| over the reached outcomes
    overlaps = np.minimum(np.abs(np.einsum("ij,ij->i", outcomes.post_states.conj(), states)), 1.0)
    infidelity = (1.0 - overlaps).max(initial=0.0)

    # sum_j sqrt(p_j) tau_j (x) B_j on the rank columns of purify(spectral),
    # transposed: B_j restricted to them is conjugated column j of the isometry
    rebuilt = adjoint.T @ target.weighted_states.T
    reconstruction = numerics.max_abs(np.subtract(rebuilt, spectral.weighted_states.T, out=rebuilt))

    report = PreparationReport(
        weight_deviation=float(weight_deviation),
        state_infidelity=float(infidelity),
        isometry_residual=float(plan.isometry_residual),
        reconstruction_residual=float(reconstruction),
        tol=tol,
    )
    return plan, outcomes, report
