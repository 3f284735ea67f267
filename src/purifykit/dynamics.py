"""Hamiltonian realization of the purification.

One term per spectral state: H_j = P_j (x) Y_j couples the projector
P_j = |phi_j><phi_j| with Y_j = i (|e_j><e_0| - |e_0><e_j|), sigma_y on the
(e_0, e_j) plane of K. The model is the states phi_j and that 2x2 block;
no operator on S (x) K is formed. The terms commute, annihilate each other,
and satisfy H_j^3 = H_j, so at a quarter turn of omega*T the propagator is
termwise I - H_j^2 - i H_j and maps every phi_j (x) e_0 to phi_j (x) e_j.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import numerics
from .ensembles import SpectralEnsemble
from .errors import ContractViolation, DimensionMismatch, IndexOutOfRange
from .errors import NotFinite, NotOrthonormal, ReferenceTooSmall
from .numerics import TOL
from .purification import BipartiteState
from .reports import Check, Report

# Y_j restricted to its (e_0, e_j) plane, in that basis order. The sign
# makes the quarter-turn kick send the ready slot to e_j with a +1 amplitude.
PLANE_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]])
# The closed-form quarter-turn block I - Y^2 - iY.
QUARTER_TURN = np.eye(2) - PLANE_Y @ PLANE_Y - 1j * PLANE_Y


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

    def require_correlating(self) -> None:
        phase = self.phase()
        if not (
            math.isfinite(phase)
            and abs(math.cos(phase)) <= TOL.quarter_turn
            and abs(math.sin(phase) - 1.0) <= TOL.quarter_turn
        ):
            raise ContractViolation(
                f"omega*T = {phase} is not a quarter turn "
                f"(cos must vanish and sin must equal 1 within {TOL.quarter_turn})"
            )

    @classmethod
    def canonical(cls) -> "EvolutionParams":
        """Smallest positive solution: omega = 1, T = pi/2."""
        return cls()


@dataclass
class HamiltonianModel:
    """H = sum_j P_j (x) Y_j on S (x) K, stored as the states phi_j.

    Constructing the model checks everything the propagators rely on, once:
    ``phi`` is a finite 2-D stack of 1 or more rows of width ``dim_s`` >= 1
    (``DimensionMismatch``); ``dim_k``, by default the number of rows, is a
    positive integer (``DimensionMismatch``) no smaller than that number
    (``ReferenceTooSmall``: each row needs its own reference direction); the
    rows are pairwise orthonormal (``NotOrthonormal``); and the cross-products
    vanish, so all pairs commute (see :func:`commutator_max`). The
    cross-product maximum, which is also the commutator maximum, the Gram
    matrix G = conj(phi) phi^T behind the orthonormality check, and the row
    peaks m_j = max_s |phi_j[s]| are kept as validated, for the verification
    report.
    """

    phi: np.ndarray
    dim_k: int | None = None
    gram: np.ndarray = field(init=False, repr=False)
    peaks: np.ndarray = field(init=False, repr=False)
    cross_product_maximum: float = field(init=False)

    def __post_init__(self):
        self.phi = numerics.as_matrix(self.phi)
        count, width = self.phi.shape
        numerics.as_dimension(count, DimensionMismatch, "the number of states")
        numerics.as_dimension(width, DimensionMismatch, "dim_s")
        if self.dim_k is None:
            self.dim_k = count
        self.dim_k = numerics.as_dimension(self.dim_k, DimensionMismatch, "dim_k")
        if count > self.dim_k:
            raise ReferenceTooSmall(
                f"reference dimension {self.dim_k} cannot host {count} correlated directions"
            )
        self.gram = _gram(self.phi)
        if numerics.max_abs(self.gram - np.eye(count)) > TOL.orthonormality:
            raise NotOrthonormal("phi rows must be pairwise orthonormal")
        self.peaks = _row_peaks(self.phi)
        self.cross_product_maximum = _commuting_cross_product_max(self.phi, self.peaks)

    @property
    def dim_s(self) -> int:
        return self.phi.shape[1]


def cross_product_max(phi) -> float:
    """Largest entry of any product H_a H_b of two distinct terms.

    For a != b, H_a H_b = <phi_a|phi_b> |phi_a><phi_b| (x) |e_a><e_b|, so
    its largest entry is |G_ab| m_a m_b, with the Gram matrix G = phi phi^+
    and m_j the largest amplitude of phi_j. The j = 0 term is zero.
    ``phi`` must be a finite 2-D array (``DimensionMismatch``, ``NotFinite``).
    """
    phi = numerics.as_matrix(phi)
    return _cross_product_max(phi, _row_peaks(phi))


def _row_peaks(phi: np.ndarray) -> np.ndarray:
    """m_j = max_s |phi_j[s]|, the largest amplitude of each row."""
    return np.abs(phi).max(axis=1, initial=0.0)


def _cross_product_max(phi: np.ndarray, peaks: np.ndarray) -> float:
    """:func:`cross_product_max` of an already validated 2-D ``phi`` with row peaks ``peaks``."""
    phi, peaks = phi[1:], peaks[1:]
    products = np.abs(phi @ numerics.dag(phi)) * (peaks[:, np.newaxis] * peaks)
    products.flat[:: len(products) + 1] = 0.0  # the diagonal, a == b
    return numerics.max_abs(products)


def _commuting_cross_product_max(phi: np.ndarray, peaks: np.ndarray) -> float:
    """:func:`_cross_product_max`; above ``TOL.commutator`` it raises ``ContractViolation``."""
    maximum = _cross_product_max(phi, peaks)
    if maximum > TOL.commutator:
        raise ContractViolation(f"nonzero cross-product between terms: {maximum}")
    return maximum


def commutator_max(phi) -> float:
    """Largest entry of any pairwise commutator [H_a, H_b].

    Its two products H_a H_b and H_b H_a sit in the disjoint reference
    blocks (a, b) and (b, a), so the largest entry is that of the larger
    cross-product.
    """
    return cross_product_max(phi)


def build_model(phi, dim_k: int | None = None) -> HamiltonianModel:
    """Assemble one term per state of an orthonormal family.

    ``dim_k`` defaults to the family size; :class:`HamiltonianModel`
    checks it and the family.
    """
    return HamiltonianModel(phi, dim_k)


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


def power_identities_check(phi, j: int) -> PowerIdentityReport:
    """Verify H^3 = H and H^2 = |phi_j><phi_j| (x) (e_0 e_0^+ + e_j e_j^+).

    With P_j^2 = |phi_j|^2 P_j, Y^3 = Y and Y^2 = I on the (e_0, e_j)
    plane, the residuals are m_j^2 ||phi_j|^4 - 1| and m_j^2 ||phi_j|^2 - 1|,
    m_j the largest amplitude of phi_j. For the vanishing j = 0 term both
    identities degenerate to zero.
    """
    phi = numerics.as_matrix(phi)
    if isinstance(j, bool) or not isinstance(j, (int, np.integer)) or not 0 <= j < len(phi):
        raise IndexOutOfRange(f"index {j!r} has no matching state (only {len(phi)})")
    odd, even = _power_residuals(_gram(phi), _row_peaks(phi))
    return PowerIdentityReport(reference_index=j, odd_residual=odd[j], even_residual=even[j])


def _gram(phi: np.ndarray) -> np.ndarray:
    """The Gram matrix G = conj(phi) phi^T, entry [i, j] = <phi_i|phi_j>."""
    return phi.conj() @ phi.T


def _power_residuals(gram: np.ndarray, peaks: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The odd and even residuals of :func:`power_identities_check` for every term
    of phi, in one pass, from phi's Gram matrix ``gram`` (|phi_j|^2 on its
    diagonal) and row peaks ``peaks``."""
    norm2 = gram.diagonal().real
    scale = peaks**2
    odd = scale * np.abs(norm2**2 - 1.0)
    even = scale * np.abs(norm2 - 1.0)
    odd[:1] = even[:1] = 0.0  # the j = 0 term is zero
    return odd, even


def _rotate_planes(phi: np.ndarray, block: np.ndarray, grids: np.ndarray) -> np.ndarray:
    """Apply I + sum_j P_j (x) (block - I) on (e_0, e_j), j >= 1, to each grid.

    The kernel of every propagator; it checks nothing. ``phi`` is a model's
    validated n x dim_s family, ``block`` one 2x2 block and ``grids`` a
    finite complex stack of states shaped (..., dim_s, dim_k), dim_k >= n,
    entry [s, k] the amplitude of e_s (x) e_k. With C = conj(phi) Psi, the
    map is Psi -> Psi + phi^T (C' - C), where C' rotates each pair
    (C[j, 0], C[j, j]) by the block. Only those pairs change, so only they
    are formed: the ready column is column 0 and the partners are the
    contiguous columns 1..n-1.
    """
    count = phi.shape[0]
    phi = phi[1:]
    conj = phi.conj()
    states = grids.reshape(-1, *grids.shape[-2:])
    pairs = np.empty((2, len(states), count - 1), dtype=complex)
    np.matmul(states[:, :, 0], conj.T, out=pairs[0])
    np.einsum("js,tsj->tj", conj, states[:, :, 1:count], out=pairs[1])
    flat = pairs.reshape(2, -1)
    # (block - I) @ pairs would round differently and move the output bytes
    change = (block @ flat - flat).reshape(pairs.shape)
    out = states.copy()
    out[:, :, 0] += change[0] @ phi
    out[:, :, 1:count] += phi.T * change[1][:, np.newaxis, :]
    return out.reshape(grids.shape)


def _model_grids(model: HamiltonianModel, grids) -> np.ndarray:
    """``grids`` as a finite complex stack of dim_s x dim_k states of ``model``;
    a NaN or infinite amplitude raises ``NotFinite``, another shape
    ``DimensionMismatch``."""
    grids = numerics.as_array(grids)
    if not np.isfinite(grids).all():
        raise NotFinite("state amplitudes must be finite")
    if grids.shape[-2:] != (model.dim_s, model.dim_k):
        raise DimensionMismatch(f"states must be {model.dim_s} x {model.dim_k} grids")
    return grids


def _numeric_block(params: EvolutionParams) -> np.ndarray:
    """exp(-i omega T Y) on one plane, cos(omega T) I - i sin(omega T) Y since
    Y^2 = I; a non-finite omega*T raises ``NotFinite``."""
    phase = params.phase()
    if not math.isfinite(phase):
        raise NotFinite(f"omega*T = {phase} must be finite")
    cos, sin = math.cos(phase), math.sin(phase)
    return np.array([[cos, -sin], [sin, cos]], dtype=complex)


def evolution_closed_form(model: HamiltonianModel, grids) -> np.ndarray:
    """Quarter-turn propagator I - H_j^2 - i H_j, applied to a stack of finite states."""
    return _rotate_planes(model.phi, QUARTER_TURN, _model_grids(model, grids))


def evolution_numeric(model: HamiltonianModel, params: EvolutionParams, grids) -> np.ndarray:
    """exp(-i omega T H) on a stack of finite states, each plane turned by exp(-i omega T Y)."""
    return _rotate_planes(model.phi, _numeric_block(params), _model_grids(model, grids))


def _fidelities(gram: np.ndarray, block: np.ndarray) -> np.ndarray:
    """|<phi_j (x) e_j| U |phi_j (x) e_0>| for U the plane map of ``block``, at
    most 1, from phi's Gram matrix ``gram`` (see :func:`verification_report`)."""
    diagonal = gram.diagonal().real
    fidelities = abs(block[1, 0]) * diagonal**2
    fidelities[0] = abs(diagonal[0] + (block[0, 0] - 1) * (np.abs(gram[1:, 0]) ** 2).sum())
    return np.minimum(fidelities, 1.0)


def _plane_map_gap(
    phi: np.ndarray, gram: np.ndarray, peaks: np.ndarray, delta: np.ndarray
) -> float:
    """Largest entry by which the plane maps of two blocks differing by
    ``delta`` differ on the probes phi_i (x) e_0 and phi_i (x) e_i, from
    phi, its Gram matrix and its row peaks."""
    rows, pairs, peaks = phi[1:], gram[1:], peaks[1:]  # pairs[j - 1, i] = G_ji
    own = gram.diagonal()[1:].real * peaks
    return float(max(
        abs(delta[0, 0]) * numerics.max_abs(pairs.T @ rows),
        abs(delta[1, 0]) * numerics.max_abs(np.abs(pairs) * peaks[:, np.newaxis]),
        max(abs(delta[0, 1]), abs(delta[1, 1])) * numerics.max_abs(own),
    ))


def purify_via_dynamics(
    spectral: SpectralEnsemble, params: EvolutionParams | None = None
) -> BipartiteState:
    """Purify by evolving sum_i sqrt(d_i) phi_i (x) e_0 for one pulse.

    Matches the static construction of :func:`purification.purify` up to
    a global phase; the reference is truncated to the rank since higher
    terms act as zero on the initial state.

    The terms are those of ``build_model(spectral.states, spectral.rank)``,
    but no model is built: admission as a :class:`SpectralEnsemble` already
    checked the states to be finite rows pairwise orthonormal within
    ``TOL.orthonormality``, so only the quarter turn and the vanishing
    cross-products (``ContractViolation``) are checked here.
    """
    params = EvolutionParams.canonical() if params is None else params
    params.require_correlating()
    phi = spectral.states
    _commuting_cross_product_max(phi, _row_peaks(phi))
    grid = np.zeros((spectral.dim, spectral.rank), dtype=complex)
    grid[:, 0] = spectral.weighted_states.sum(axis=1)
    evolved = _rotate_planes(phi, _numeric_block(params), grid)
    return BipartiteState(spectral.dim, spectral.rank, evolved.reshape(-1))


@dataclass
class DynamicsReport(Report):
    """Full verification sweep for one Hamiltonian model. Entry j of each array
    belongs to state j: the fidelity of phi_j (x) e_0 -> phi_j (x) e_j under the
    evolution, and the odd and even residuals of :func:`power_identities_check`."""

    fidelities: np.ndarray
    odd_residuals: np.ndarray
    even_residuals: np.ndarray
    cross_product_maximum: float  # also the commutator maximum, so it fills both lines
    closed_vs_numeric: float

    def checks(self) -> list[Check]:
        checks = [
            Check(f"correlation infidelity, state {j}", 1.0 - f, TOL.correlation)
            for j, f in enumerate(self.fidelities)
        ]
        for j, pair in enumerate(zip(self.odd_residuals, self.even_residuals)):
            checks += PowerIdentityReport(j, *pair).checks()
        return checks + [
            Check("commutator maximum", self.cross_product_maximum, TOL.commutator),
            Check("cross-product maximum", self.cross_product_maximum, TOL.commutator),
            Check("closed form vs numeric propagator", self.closed_vs_numeric, TOL.closed_form),
        ]


def verification_report(model: HamiltonianModel, params: EvolutionParams) -> DynamicsReport:
    """Run every dynamics check on one model at the given parameters.

    Both propagators change only the planes of phi_j (x) e_0 and phi_j (x) e_j (j >= 1), so
    no probe is formed: phi_i (x) e_0 has the pairs (G_ji, 0), phi_i (x) e_i the pair (0, G_ii).
    G_ji = <phi_j|phi_i>, m_j = max_s |phi_j[s]|, N the numeric block, dB = QUARTER_TURN - N:
    - phi_i (x) e_0 differs by dB_00 sum_j G_ji phi_j on e_0: |dB_00| max |phi_{1:}^T G_{1:}|.
    - phi_i (x) e_0 differs by dB_10 G_ji phi_j on e_j: |dB_10| max_{j, i} |G_ji| m_j.
    - phi_i (x) e_i differs by dB_01 G_ii phi_i on e_0: |dB_01| max_i G_ii m_i.
    - phi_i (x) e_i differs by dB_11 G_ii phi_i on e_i: |dB_11| max_i G_ii m_i.
    - Fidelity, j >= 1: <phi_j (x) e_j| N_10 G_jj phi_j (x) e_j> = N_10 G_jj^2.
    - Fidelity, j = 0: <phi_0| phi_0 + (N_00 - 1) sum_i G_i0 phi_i> on e_0, with i >= 1.
    """
    params.require_correlating()
    block = _numeric_block(params)
    odd, even = _power_residuals(model.gram, model.peaks)
    return DynamicsReport(
        fidelities=_fidelities(model.gram, block),
        odd_residuals=odd,
        even_residuals=even,
        cross_product_maximum=model.cross_product_maximum,
        closed_vs_numeric=_plane_map_gap(
            model.phi, model.gram, model.peaks, QUARTER_TURN - block
        ),
    )
