"""Hamiltonian realization of the purification.

One term per spectral state: H_j couples the system projector onto
phi_j with an antisymmetric rotation between the reference ready state
e_0 and the correlated direction e_j. The terms commute, annihilate each
other, and satisfy H_j^3 = H_j, so when the rotation angle omega*T sits
at a quarter turn the full propagator reduces termwise to the closed
form I - H_j^2 - i H_j and maps every phi_j (x) e_0 to phi_j (x) e_j.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import numerics
from .ensembles import SpectralEnsemble
from .errors import ContractViolation, IndexOutOfRange, NotOrthonormal, ReferenceTooSmall
from .numerics import TOL
from .purification import BipartiteState
from .reports import Check, Report


@dataclass
class EvolutionParams:
    """Coupling strength and interaction time of the correlating pulse.

    The correlating choice puts omega * duration at a quarter turn:
    cos(omega T) = 0 and sin(omega T) = 1. Other values are legal inputs
    for the numeric propagator, so the constraint is checked where the
    closed form is actually used, not at construction.
    """

    omega: float = 1.0
    duration: float = math.pi / 2

    def phase(self) -> float:
        return self.omega * self.duration

    def is_correlating(self) -> bool:
        return (
            abs(math.cos(self.phase())) <= TOL.quarter_turn
            and abs(math.sin(self.phase()) - 1.0) <= TOL.quarter_turn
        )

    def require_correlating(self) -> None:
        if not self.is_correlating():
            raise ContractViolation(
                f"omega*T = {self.phase()} is not a quarter turn "
                f"(cos must vanish and sin must equal 1 within {TOL.quarter_turn})"
            )

    @classmethod
    def canonical(cls) -> "EvolutionParams":
        """Smallest positive solution: omega = 1, T = pi/2."""
        return cls(omega=1.0, duration=math.pi / 2)


def build_term(j: int, phi, dim_k: int) -> np.ndarray:
    """Generator coupling phi_j with the reference rotation e_0 <-> e_j.

    Returns i * |phi_j><phi_j| (x) (|e_j><e_0| - |e_0><e_j|) on S (x) K;
    the block orientation makes the quarter-turn kick send the ready
    slot to e_j with a +1 amplitude. The j = 0 term vanishes identically
    because both dyads reduce to |e_0><e_0|.
    """
    phi = np.asarray(phi, dtype=complex)
    if not 0 <= j < dim_k:
        raise IndexOutOfRange(f"index {j} outside the reference range [0, {dim_k})")
    if j >= phi.shape[0]:
        raise IndexOutOfRange(f"index {j} has no matching state (only {phi.shape[0]})")
    projector = np.outer(phi[j], phi[j].conj())
    block = np.zeros((dim_k, dim_k), dtype=complex)
    if j != 0:
        block[j, 0] = 1.0
        block[0, j] = -1.0
    return 1j * np.kron(projector, block)


@dataclass
class HamiltonianModel:
    """The term family H_j and their sum on S (x) K.

    Constructing the model checks the algebra the closed form relies on:
    each term Hermitian, all pairs commuting, and cross-products zero. The
    two pairwise maxima are kept as validated, for the verification report.
    """

    dim_s: int
    dim_k: int
    phi: np.ndarray
    terms: list[np.ndarray] = field(repr=False)
    total: np.ndarray = field(repr=False)
    cross_product_maximum: float = field(init=False)
    commutator_maximum: float = field(init=False)

    def __post_init__(self):
        self.phi = np.asarray(self.phi, dtype=complex)
        for j, term in enumerate(self.terms):
            residual = numerics.max_abs(term - numerics.dag(term))
            if residual > TOL.term_hermiticity:
                raise ContractViolation(
                    f"term {j} deviates from Hermiticity by {residual}"
                )
        self.cross_product_maximum = cross_product_max(self.terms)
        if self.cross_product_maximum > TOL.commutator:
            raise ContractViolation(
                f"nonzero cross-product between terms: {self.cross_product_maximum}"
            )
        self.commutator_maximum = commutator_max(self.terms)
        if self.commutator_maximum > TOL.commutator:
            raise ContractViolation(f"terms do not commute: {self.commutator_maximum}")


def commutator_max(terms) -> float:
    """Largest entry of any pairwise commutator."""
    worst = 0.0
    for a in range(len(terms)):
        for b in range(a + 1, len(terms)):
            worst = max(worst, numerics.max_abs(terms[a] @ terms[b] - terms[b] @ terms[a]))
    return worst


def cross_product_max(terms) -> float:
    """Largest entry of any product of two distinct terms."""
    worst = 0.0
    for a in range(len(terms)):
        for b in range(len(terms)):
            if a != b:
                worst = max(worst, numerics.max_abs(terms[a] @ terms[b]))
    return worst


def build_model(phi, dim_k: int | None = None) -> HamiltonianModel:
    """Assemble one term per state of an orthonormal family.

    ``dim_k`` defaults to the family size; every state needs its own
    reference direction, so a smaller reference is rejected.
    """
    phi = np.asarray(phi, dtype=complex)
    if phi.ndim != 2:
        raise NotOrthonormal("phi must be a 2-D array of row states")
    count = phi.shape[0]
    if dim_k is None:
        dim_k = count
    if dim_k < count:
        raise ReferenceTooSmall(
            f"reference dimension {dim_k} cannot host {count} correlated directions"
        )
    gram = phi @ numerics.dag(phi)
    if numerics.max_abs(gram - np.eye(count)) > TOL.orthonormality:
        raise NotOrthonormal("phi rows must be pairwise orthonormal")
    terms = [build_term(j, phi, dim_k) for j in range(count)]
    total = np.sum(terms, axis=0)
    return HamiltonianModel(
        dim_s=int(phi.shape[1]), dim_k=int(dim_k), phi=phi, terms=terms, total=total
    )


@dataclass
class PowerIdentityReport(Report):
    """Residuals of H^3 = H and of H^2 against its projector form."""

    reference_index: int
    odd_residual: float
    even_residual: float

    def checks(self) -> list[Check]:
        term = f"term {self.reference_index}"
        return [
            Check(f"{term}: cube-equals-self residual", self.odd_residual, TOL.power),
            Check(f"{term}: square-projector residual", self.even_residual, TOL.power),
        ]


def power_identities_check(term, phi_j, dim_k: int) -> PowerIdentityReport:
    """Verify H^3 = H and H^2 = |phi_j><phi_j| (x) (e_0 e_0^+ + e_j e_j^+).

    The correlated index j is recovered from the term itself: contracting
    out the system factor leaves the antisymmetric reference block, whose
    first column is supported on row j alone. For the vanishing j = 0
    term both identities degenerate to zero.
    """
    term = numerics.as_matrix(term)
    phi_j = np.asarray(phi_j, dtype=complex)
    if term.shape[0] % dim_k != 0:
        raise IndexOutOfRange(
            f"operator side {term.shape[0]} does not factor over reference {dim_k}"
        )
    dim_s = term.shape[0] // dim_k
    grid = term.reshape(dim_s, dim_k, dim_s, dim_k)
    block = np.einsum("s,sktl,t->kl", phi_j.conj(), grid, phi_j)
    column = np.abs(block[:, 0])
    index = int(np.argmax(column)) if float(column.max()) > 0.5 else 0
    if index == 0:
        expected_square = np.zeros_like(term)
    else:
        reference = np.zeros((dim_k, dim_k), dtype=complex)
        reference[0, 0] = 1.0
        reference[index, index] = 1.0
        expected_square = np.kron(np.outer(phi_j, phi_j.conj()), reference)
    square = term @ term
    cube = square @ term
    return PowerIdentityReport(
        reference_index=index,
        odd_residual=numerics.max_abs(cube - term),
        even_residual=numerics.max_abs(square - expected_square),
    )


def evolution_closed_form(model: HamiltonianModel) -> np.ndarray:
    """Quarter-turn propagator as the product of I - H_j^2 - i H_j."""
    side = model.total.shape[0]
    out = np.eye(side, dtype=complex)
    identity = np.eye(side, dtype=complex)
    for term in model.terms:
        out = out @ (identity - term @ term - 1j * term)
    return out


def evolution_numeric(model: HamiltonianModel, params: EvolutionParams) -> np.ndarray:
    """exp(-i omega T H) through the spectral exponential; unitary for any params."""
    return numerics.mat_exp_hermitian(model.total, params.phase())


@dataclass
class CorrelationReport(Report):
    """Per-state fidelities of phi_j (x) e_0 -> phi_j (x) e_j under the evolution."""

    fidelities: np.ndarray

    @property
    def min_fidelity(self) -> float:
        return float(np.min(self.fidelities))

    def checks(self) -> list[Check]:
        return [
            Check(f"correlation infidelity, state {j}", 1.0 - f, TOL.correlation)
            for j, f in enumerate(self.fidelities)
        ]


def verify_correlating_evolution(
    model: HamiltonianModel, params: EvolutionParams
) -> CorrelationReport:
    """Apply the propagator to each phi_j (x) e_0 and compare with phi_j (x) e_j."""
    propagator = evolution_numeric(model, params)
    ready = numerics.basis_state(model.dim_k, 0)
    fidelities = []
    for j in range(model.phi.shape[0]):
        start = np.kron(model.phi[j], ready)
        expected = np.kron(model.phi[j], numerics.basis_state(model.dim_k, j))
        fidelities.append(numerics.state_fidelity(expected, propagator @ start))
    return CorrelationReport(fidelities=np.array(fidelities))


def purify_via_dynamics(
    spectral: SpectralEnsemble, params: EvolutionParams | None = None
) -> BipartiteState:
    """Purify by evolving sum_i sqrt(d_i) phi_i (x) e_0 for one pulse.

    Matches the static construction of :func:`purification.purify` up to
    a global phase; the reference is truncated to the rank since higher
    terms act as zero on the initial state.
    """
    params = EvolutionParams.canonical() if params is None else params
    params.require_correlating()
    model = build_model(spectral.states, spectral.rank)
    grid = np.zeros((spectral.dim, spectral.rank), dtype=complex)
    grid[:, 0] = np.sqrt(spectral.weights) @ spectral.states
    evolved = evolution_numeric(model, params) @ grid.reshape(-1)
    return BipartiteState(spectral.dim, spectral.rank, evolved)


@dataclass
class DynamicsReport(Report):
    """Full verification sweep for one Hamiltonian model."""

    correlation: CorrelationReport
    power_reports: list[PowerIdentityReport]
    commutator_maximum: float
    cross_product_maximum: float
    closed_vs_numeric: float

    def checks(self) -> list[Check]:
        return [
            *self.correlation.checks(),
            *(check for report in self.power_reports for check in report.checks()),
            Check("commutator maximum", self.commutator_maximum, TOL.commutator),
            Check("cross-product maximum", self.cross_product_maximum, TOL.commutator),
            Check("closed form vs numeric propagator", self.closed_vs_numeric, TOL.closed_form),
        ]


def verification_report(model: HamiltonianModel, params: EvolutionParams) -> DynamicsReport:
    """Run every dynamics check on one model at the given parameters."""
    params.require_correlating()
    closed = evolution_closed_form(model)
    numeric = evolution_numeric(model, params)
    power = [
        power_identities_check(term, model.phi[j], model.dim_k)
        for j, term in enumerate(model.terms)
    ]
    return DynamicsReport(
        correlation=verify_correlating_evolution(model, params),
        power_reports=power,
        commutator_maximum=model.commutator_maximum,
        cross_product_maximum=model.cross_product_maximum,
        closed_vs_numeric=numerics.max_abs(closed - numeric),
    )
