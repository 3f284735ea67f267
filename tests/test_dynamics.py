"""Tests for the correlating Hamiltonian, its algebra, and the evolution.

The library keeps the Hamiltonian factored and applies its propagators to
states; ``dense_oracle`` builds the same operators as full matrices, and
the tests compare the two.
"""

import math
import time
import tracemalloc
from collections import Counter

import dense_oracle
import numpy as np
import pytest
from dense_oracle import as_matrix, build_term, build_terms, power_residuals, propagator
from hypothesis import example, given, settings
from hypothesis import strategies as st

from purifykit import dynamics, numerics
from purifykit.dynamics import (
    PLANE_Y,
    EvolutionParams,
    HamiltonianModel,
    build_model,
    commutator_max,
    cross_product_max,
    evolution_closed_form,
    evolution_numeric,
    power_identities_check,
    purify_via_dynamics,
    verification_report,
)
from purifykit.ensembles import (
    Ensemble,
    SpectralEnsemble,
    density_matrix,
    random_ensemble,
    spectral_ensemble,
)
from purifykit.errors import ContractViolation, DimensionMismatch, IndexOutOfRange
from purifykit.errors import NotFinite, NotOrthonormal, ReferenceTooSmall
from purifykit.purification import purify

KET0 = np.array([1.0, 0.0], dtype=complex)
KET1 = np.array([0.0, 1.0], dtype=complex)


def dyad_oracle(j, phi, dim_k):
    """Assemble i |phi_j><phi_j| (x) (|e_j><e_0| - |e_0><e_j|) entry by entry."""
    dim_s = phi.shape[1]
    side = dim_s * dim_k
    out = np.zeros((side, side), dtype=complex)
    for s in range(dim_s):
        for t in range(dim_s):
            amp = phi[j][s] * np.conj(phi[j][t])
            if j != 0:
                out[s * dim_k + j, t * dim_k + 0] += 1j * amp
                out[s * dim_k + 0, t * dim_k + j] -= 1j * amp
    return out


def orthonormal_family(dim, count, rng):
    return numerics.haar_unitary(dim, rng)[:, :count].T


def balanced_spectral():
    return SpectralEnsemble(2, np.array([0.5, 0.5]), np.array([KET0, KET1]))


def drawn_spectral(dim, rank, rng):
    """``rank`` Haar rows of C^dim with descending Dirichlet weights, admitted by hand."""
    weights = np.sort(rng.dirichlet(np.ones(rank)))[::-1]
    return SpectralEnsemble(dim, weights, orthonormal_family(dim, rank, rng))


def per_term_power_check(phi, j):
    """The power residuals of term j alone, with 2x2 block products: the
    per-term evaluation the library's one array pass replaced."""
    phi = np.asarray(phi, dtype=complex)
    if j == 0:
        return dynamics.PowerIdentityReport(reference_index=0, odd_residual=0.0, even_residual=0.0)
    norm2 = float(np.vdot(phi[j], phi[j]).real)
    scale = numerics.max_abs(phi[j]) ** 2
    square = PLANE_Y @ PLANE_Y
    return dynamics.PowerIdentityReport(
        reference_index=j,
        odd_residual=scale * numerics.max_abs(norm2**2 * square @ PLANE_Y - PLANE_Y),
        even_residual=scale * numerics.max_abs(norm2 * square - np.eye(2)),
    )


def closed_matrix(model):
    return as_matrix(lambda grids: evolution_closed_form(model, grids), model.dim_s, model.dim_k)


def numeric_matrix(model, params):
    return as_matrix(
        lambda grids: evolution_numeric(model, params, grids), model.dim_s, model.dim_k
    )


# ---------------------------------------------------------------------------
# the terms: dense oracle against the entrywise dyads and the 2x2 block


def test_term_zero_vanishes():
    phi = np.eye(2, dtype=complex)
    np.testing.assert_array_equal(build_term(0, phi, 2), np.zeros((4, 4)))
    # the library leaves every phi_0 (x) e_k alone
    closed = closed_matrix(build_model(phi, 2))
    np.testing.assert_array_equal(closed[:, :2], np.eye(4)[:, :2])


def test_term_one_matches_dyad_oracle_and_frozen_entries():
    phi = np.eye(2, dtype=complex)
    term = build_term(1, phi, 2)
    np.testing.assert_allclose(term, dyad_oracle(1, phi, 2), atol=1e-15)
    # lone antisymmetric pair: (S=1,K=0) -> (S=1,K=1) carries +i
    assert term[3, 2] == 1j
    assert term[2, 3] == -1j
    assert numerics.max_abs(term) == 1.0
    # restricted to the (e_0, e_1) plane of phi_1, the term is the library's block
    np.testing.assert_array_equal(term[2:, 2:], PLANE_Y)


def test_term_rejects_out_of_range_index():
    phi = np.eye(2, dtype=complex)
    with pytest.raises(IndexOutOfRange):
        power_identities_check(phi, 2)
    with pytest.raises(IndexOutOfRange):
        power_identities_check(phi, -1)
    with pytest.raises(IndexOutOfRange):
        power_identities_check(phi[:1], 1)
    # True would index as a boolean mask and report residuals 8 and 2
    for j in (True, False, 1.0, np.float64(1.0), "1", None):
        with pytest.raises(IndexOutOfRange):
            power_identities_check(phi, j)
    assert power_identities_check(phi, np.int64(1)) == power_identities_check(phi, 1)
    with pytest.raises(DimensionMismatch):
        power_identities_check(phi[0], 1)


@given(dim=st.integers(2, 6), seed=st.integers(0, 2**32 - 1))
@settings(max_examples=50, deadline=None)
def test_terms_are_hermitian_and_match_the_oracle(dim, seed):
    rng = np.random.default_rng(seed)
    phi = orthonormal_family(dim, dim, rng)
    for j in range(dim):
        term = build_term(j, phi, dim)
        assert numerics.max_abs(term - numerics.dag(term)) <= 1e-15
        np.testing.assert_allclose(term, dyad_oracle(j, phi, dim), atol=1e-15)
    # the closed form is I - H^2 - iH, so H is i/2 times its anti-Hermitian part
    closed = closed_matrix(build_model(phi, dim))
    generator = 0.5j * (closed - numerics.dag(closed))
    np.testing.assert_allclose(generator, sum(build_terms(phi, dim)), atol=1e-15)


def test_propagators_reject_states_of_the_wrong_shape():
    model = build_model(np.eye(2, dtype=complex), 3)
    with pytest.raises(DimensionMismatch):
        evolution_closed_form(model, np.zeros(6))
    with pytest.raises(DimensionMismatch):
        evolution_numeric(model, EvolutionParams.canonical(), np.zeros((3, 2)))


def test_propagators_refuse_non_finite_states():
    model = build_model(np.eye(2, dtype=complex), 3)
    params = EvolutionParams.canonical()
    for bad in (np.inf, -np.inf, np.nan):
        grids = np.zeros((2, 2, 3), dtype=complex)
        grids[1, 0, 2] = bad
        with pytest.raises(NotFinite):
            evolution_closed_form(model, grids)
        with pytest.raises(NotFinite):
            evolution_numeric(model, params, grids)
        with pytest.raises(NotFinite):
            evolution_closed_form(model, np.full((2, 3), bad))
    with pytest.raises(NotFinite):
        evolution_numeric(model, params, [[0, 1j * np.inf, 0], [0, 0, 0]])


# ---------------------------------------------------------------------------
# power identities


def test_power_identities_for_zero_term():
    phi = np.eye(2, dtype=complex)
    report = power_identities_check(phi, 0)
    assert report.reference_index == 0
    assert report.odd_residual == 0.0
    assert report.even_residual == 0.0


def test_power_identities_for_nontrivial_term():
    phi = np.eye(2, dtype=complex)
    report = power_identities_check(phi, 1)
    assert report.reference_index == 1
    assert report.odd_residual <= 1e-12
    assert report.even_residual <= 1e-12


def test_power_identities_on_random_basis_dim5():
    rng = np.random.default_rng(55)
    phi = orthonormal_family(5, 5, rng)
    for j in range(5):
        report = power_identities_check(phi, j)
        assert report.reference_index == j
        assert report.odd_residual <= 1e-12
        assert report.even_residual <= 1e-12
        assert max(power_residuals(j, phi, 5)) <= 1e-12


@given(dim=st.integers(2, 8), seed=st.integers(0, 2**32 - 1))
@settings(max_examples=40, deadline=None)
def test_powers_one_to_four_alternate(dim, seed):
    rng = np.random.default_rng(seed)
    phi = orthonormal_family(dim, dim, rng)
    j = int(rng.integers(1, dim))
    term = build_term(j, phi, dim)
    square = term @ term
    assert numerics.max_abs(term @ square - term) <= 1e-12  # H^3 = H
    assert numerics.max_abs(square @ square - square) <= 1e-12  # H^4 = H^2
    report = power_identities_check(phi, j)
    assert max(report.odd_residual, report.even_residual) <= 1e-12


@given(
    rows=st.integers(1, 8),
    width=st.integers(1, 8),
    lean=st.floats(-1e-3, 1e-3),
    seed=st.integers(0, 2**32 - 1),
)
@example(rows=3, width=3, lean=0.0, seed=0)
@example(rows=6, width=6, lean=-0.000765512425085161, seed=38175016)
@settings(max_examples=60, deadline=None)
def test_the_array_pass_gives_the_per_term_power_reports(rows, width, lean, seed):
    # rows of any norm, so the residuals are not all zero
    rng = np.random.default_rng(seed)
    phi = rng.standard_normal((rows, width)) + 1j * rng.standard_normal((rows, width))
    phi /= np.linalg.norm(phi, axis=1, keepdims=True)
    phi *= 1.0 + lean * rng.random((rows, 1))
    expected = [per_term_power_check(phi, j) for j in range(rows)]
    odd, even = dynamics._power_residuals(dynamics._gram(phi), dynamics._row_peaks(phi))
    reports = [power_identities_check(phi, j) for j in range(rows)]
    assert [(r.odd_residual, r.even_residual) for r in reports] == list(zip(odd, even))
    assert [r.reference_index for r in reports] == list(range(rows))
    # the pass squares with one correctly rounded product where the loop
    # called libm's pow, which can differ in the last bit
    np.testing.assert_allclose(
        np.column_stack([odd, even]),
        [(r.odd_residual, r.even_residual) for r in expected],
        rtol=1e-15,
        atol=1e-15,
    )


# ---------------------------------------------------------------------------
# model-level algebra


@given(dim=st.integers(2, 8), seed=st.integers(0, 2**32 - 1))
@settings(max_examples=30, deadline=None)
def test_terms_commute_and_annihilate_each_other(dim, seed):
    rng = np.random.default_rng(seed)
    phi = orthonormal_family(dim, dim, rng)
    build_model(phi, dim)
    assert commutator_max(phi) <= 1e-12
    assert cross_product_max(phi) <= 1e-12
    # every other term annihilates phi_j (x) e_0
    terms = build_terms(phi, dim)
    ready = dense_oracle.basis_state(dim, 0)
    for j in range(dim):
        joint = np.kron(phi[j], ready)
        for k in range(dim):
            if k != j:
                assert numerics.max_abs(terms[k] @ joint) <= 1e-12


@given(
    dim_s=st.integers(2, 6),
    rank=st.integers(1, 6),
    spare=st.integers(0, 2),
    push=st.floats(0.0, 5e-11),
    seed=st.integers(0, 2**32 - 1),
)
@settings(max_examples=40, deadline=None)
def test_factored_maxima_match_the_dense_oracle(dim_s, rank, spare, push, seed):
    rng = np.random.default_rng(seed)
    phi = orthonormal_family(max(dim_s, rank), rank, rng)
    if rank > 2:  # lean the last state toward phi_1 (phi_0 has no term), inside the Gram gate
        phi[-1] += push * phi[1]
        phi[-1] /= np.linalg.norm(phi[-1])
    terms = build_terms(phi, rank + spare)
    assert abs(cross_product_max(phi) - dense_oracle.cross_product_max(terms)) <= 1e-15
    assert abs(commutator_max(phi) - dense_oracle.commutator_max(terms)) <= 1e-15
    for j in range(rank):
        report = power_identities_check(phi, j)
        odd, even = power_residuals(j, phi, rank + spare)
        assert abs(report.odd_residual - odd) <= 1e-15
        assert abs(report.even_residual - even) <= 1e-15


def test_the_maxima_refuse_what_is_not_a_finite_matrix():
    # a NaN maximum would pass every "> tol" test
    for maximum in (cross_product_max, commutator_max):
        for flat in ([1, 0], np.zeros(3), 1.0):
            with pytest.raises(DimensionMismatch):
                maximum(flat)
        for bad in (np.nan, np.inf):
            with pytest.raises(NotFinite):
                maximum([[1, 0, 0], [0, 1, 0], [bad, 0, 1]])
        assert maximum(np.eye(3).tolist()) == 0.0


def test_near_orthonormal_family_is_rejected_like_the_dense_check():
    # row 2 leans 5e-11 toward row 1: inside the 1e-10 Gram gate, outside
    # the 1e-12 cross-product bound
    phi = orthonormal_family(6, 4, np.random.default_rng(6))
    phi[2] += 5e-11 * phi[1]
    phi[2] /= np.linalg.norm(phi[2])
    assert numerics.max_abs(phi @ numerics.dag(phi) - np.eye(4)) <= 1e-10
    with pytest.raises(ContractViolation, match="cross-product"):
        build_model(phi, 4)
    dense = dense_oracle.cross_product_max(build_terms(phi, 4))
    assert dense > 1e-12
    assert abs(cross_product_max(phi) - dense) <= 1e-15


def test_the_model_checks_its_dimensions_where_it_is_built():
    for dim_k in (3.7, np.float64(4.0), True, "4", 0, -1):
        with pytest.raises(DimensionMismatch):
            build_model(np.eye(3), dim_k)
    model = build_model(np.eye(5)[:3], np.int64(4))
    assert (model.dim_s, model.dim_k) == (5, 4) and type(model.dim_k) is int
    model = HamiltonianModel(np.eye(3)[:2])
    assert (model.dim_s, model.dim_k) == (3, 2)
    model.phi = np.eye(4)[:2]  # dim_s is phi's width, not a second copy of it
    assert model.dim_s == 4
    with pytest.raises(ReferenceTooSmall):
        build_model(np.eye(3), 2)
    with pytest.raises(ReferenceTooSmall):
        HamiltonianModel(np.eye(3), 2)
    with pytest.raises(DimensionMismatch):
        HamiltonianModel(np.eye(3)[0], 3)
    with pytest.raises(DimensionMismatch):
        build_model(np.zeros((0, 3)), 2)
    with pytest.raises(DimensionMismatch):
        build_model(np.zeros((2, 0)))
    with pytest.raises(NotOrthonormal):
        HamiltonianModel([[1.0, 0.0], [1.0, 0.0]], 2)
    with pytest.raises(NotFinite):
        HamiltonianModel(np.full((2, 2), np.nan), 2)


def test_non_finite_family_is_rejected_before_the_gram_check():
    # NaN compares False against every tolerance, so the Gram gate alone passes it
    for bad in (np.nan, np.inf):
        with pytest.raises(NotFinite):
            build_model(np.full((2, 2), bad))
    with pytest.raises(DimensionMismatch):
        build_model(np.array([1.0, 0.0]))



def test_the_readers_use_the_gram_matrix_the_model_validated(monkeypatch):
    phi = spectral_ensemble(density_matrix(random_ensemble(5, 3, np.random.default_rng(4)))).states
    model = build_model(phi, 4)
    np.testing.assert_array_equal(model.gram, phi.conj() @ phi.T)
    expected = verification_report(model, EvolutionParams.canonical()).render()

    def formed_again(_):
        raise AssertionError("the Gram matrix was formed again")

    monkeypatch.setattr(dynamics, "_gram", formed_again)
    assert verification_report(model, EvolutionParams.canonical()).render() == expected


# ---------------------------------------------------------------------------
# evolution, closed form vs numeric vs the dense oracle


def test_closed_form_of_trivial_model_is_identity():
    spec = spectral_ensemble(density_matrix(Ensemble(2, [1.0], [KET0])))
    model = build_model(spec.states, spec.rank)
    np.testing.assert_allclose(closed_matrix(model), np.eye(2), atol=1e-15)


def test_closed_form_single_term_literal():
    model = build_model(np.eye(2, dtype=complex), 2)
    term = build_term(1, model.phi, 2)
    expected = np.eye(4) - term @ term - 1j * term
    # the j = 0 factor is the identity, so the product collapses to one factor
    np.testing.assert_allclose(closed_matrix(model), expected, atol=1e-14)


@given(dim=st.integers(2, 6), seed=st.integers(0, 2**32 - 1))
@settings(max_examples=40, deadline=None)
def test_closed_form_equals_sum_expansion(dim, seed):
    # cross-products vanish, so the product telescopes to I - sum(H^2 + iH)
    rng = np.random.default_rng(seed)
    phi = orthonormal_family(dim, dim, rng)
    model = build_model(phi, dim)
    expansion = np.eye(dim * dim, dtype=complex)
    for term in build_terms(phi, dim):
        expansion = expansion - term @ term - 1j * term
    np.testing.assert_allclose(closed_matrix(model), expansion, atol=1e-12)


def test_numeric_matches_closed_form_at_quarter_turn():
    rng = np.random.default_rng(8)
    phi = orthonormal_family(4, 4, rng)
    model = build_model(phi, 4)
    closed = closed_matrix(model)
    for params in (EvolutionParams(1.0, math.pi / 2), EvolutionParams(1.0, math.pi / 2 + 2 * math.pi)):
        params.require_correlating()
        numeric = numeric_matrix(model, params)
        assert numerics.max_abs(closed - numeric) <= 1e-10
        assert numerics.max_abs(propagator(phi, 4, params.phase()) - numeric) <= 1e-10


def test_numeric_is_unitary_even_off_the_quarter_turn():
    model = build_model(np.eye(2, dtype=complex), 2)
    params = EvolutionParams(1.0, math.pi)
    with pytest.raises(ContractViolation):
        params.require_correlating()
    u = numeric_matrix(model, params)
    assert numerics.max_abs(u @ numerics.dag(u) - np.eye(4)) <= 1e-10
    assert numerics.max_abs(propagator(model.phi, 2, math.pi) - u) <= 1e-10


@given(
    dim_s=st.integers(1, 5),
    rank=st.integers(1, 5),
    spare=st.integers(0, 2),
    phase=st.floats(-10.0, 10.0),
    seed=st.integers(0, 2**32 - 1),
)
@settings(max_examples=40, deadline=None)
def test_propagators_match_the_dense_oracle(dim_s, rank, spare, phase, seed):
    rng = np.random.default_rng(seed)
    rank = min(rank, dim_s)
    phi = orthonormal_family(dim_s, rank, rng)
    model = build_model(phi, rank + spare)
    numeric = numeric_matrix(model, EvolutionParams(1.0, phase))
    assert numerics.max_abs(numeric - propagator(phi, rank + spare, phase)) <= 1e-12
    quarter = propagator(phi, rank + spare, math.pi / 2)
    assert numerics.max_abs(closed_matrix(model) - quarter) <= 1e-12


def test_non_finite_phase_is_not_correlating():
    model = build_model(np.eye(2, dtype=complex), 2)
    for params in (
        EvolutionParams(1e-320, math.inf),
        EvolutionParams(math.nan, 1.0),
        EvolutionParams(omega=math.inf),
    ):
        with pytest.raises(ContractViolation):
            params.require_correlating()
        # the numeric propagator accepts any finite phase, and no other
        with pytest.raises(NotFinite):
            evolution_numeric(model, params, np.zeros((2, 2)))


@given(theta=st.floats(-1e12, 1e12), seed=st.integers(0, 2**32 - 1))
@example(theta=0.0, seed=0)
@example(theta=-0.0, seed=0)
@example(theta=0.3, seed=0)
@example(theta=math.pi / 2, seed=0)
@example(theta=-2.0, seed=0)
@example(theta=1e6, seed=0)
@settings(max_examples=40, deadline=None)
def test_the_closed_form_block_is_the_spectral_exponential(theta, seed):
    # cos(theta) I - i sin(theta) Y against exp(-i theta Y) from a decomposition of Y
    rng = np.random.default_rng(seed)
    model = build_model(orthonormal_family(4, 3, rng), 5)
    grids = rng.standard_normal((3, 4, 5)) + 1j * rng.standard_normal((3, 4, 5))
    block = dynamics._numeric_block(EvolutionParams(1.0, theta))
    assert numerics.max_abs(block - dense_oracle.mat_exp_hermitian(PLANE_Y, theta)) <= 1e-15
    np.testing.assert_array_equal(
        evolution_numeric(model, EvolutionParams(1.0, theta), grids),
        dynamics._rotate_planes(model.phi, block, grids),
    )


@pytest.mark.parametrize(
    "omega, duration", [(1.0, math.nan), (1.0, math.inf), (-math.inf, 1.0), (1e200, 1e200)]
)
def test_a_non_finite_phase_raises_not_finite(omega, duration):
    with pytest.raises(NotFinite):
        dynamics._numeric_block(EvolutionParams(omega, duration))


@given(
    dim_s=st.integers(1, 16),
    rank=st.integers(1, 16),
    spare=st.integers(0, 2),
    phases=st.lists(st.floats(-10.0, 10.0), min_size=1, max_size=7),
    seed=st.integers(0, 2**32 - 1),
)
@example(dim_s=6, rank=4, spare=0, phases=[k * math.pi / 12 for k in range(7)], seed=6)
@settings(max_examples=40, deadline=None)
def test_the_pulse_separates_s_from_k(dim_s, rank, spare, phases, seed):
    # after a phase theta the reference partner of phi_j (j >= 1) is
    # cos(theta) e_0 + sin(theta) e_j up to signs, and phi_0 keeps e_0, so
    # tr rho_S^2 = sum d_i^2 + cos^4 sum_{i != j >= 1} d_i d_j + 2 cos^2 d_0 (1 - d_0)
    rng = np.random.default_rng(seed)
    rank = min(rank, dim_s)
    phi = orthonormal_family(dim_s, rank, rng)
    weights = rng.dirichlet(np.ones(rank))
    model = build_model(phi, rank + spare)
    start = np.zeros((dim_s, rank + spare), dtype=complex)
    start[:, 0] = np.sqrt(weights) @ phi
    rest = weights[1:]
    for theta in phases:
        evolved = evolution_numeric(model, EvolutionParams(1.0, theta), start)
        rho_s = evolved @ numerics.dag(evolved)
        purity = float(np.trace(rho_s @ rho_s).real)
        cos2 = math.cos(theta) ** 2
        expected = (
            np.sum(weights**2)
            + cos2**2 * (rest.sum() ** 2 - np.sum(rest**2))
            + 2 * cos2 * weights[0] * (1 - weights[0])
        )
        assert abs(purity - expected) <= 1e-12


@given(
    dim_s=st.integers(1, 5),
    rank=st.integers(1, 5),
    spare=st.integers(0, 2),
    grid_batch=st.lists(st.integers(1, 3), max_size=2),
    seed=st.integers(0, 2**32 - 1),
)
@example(dim_s=3, rank=1, spare=2, grid_batch=[3], seed=0)
@example(dim_s=4, rank=4, spare=0, grid_batch=[], seed=1)
@example(dim_s=5, rank=3, spare=2, grid_batch=[2, 1], seed=2)
@settings(max_examples=40, deadline=None)
def test_one_pass_over_a_stack_of_grids_matches_the_dense_plane_map(
    dim_s, rank, spare, grid_batch, seed
):
    rng = np.random.default_rng(seed)
    rank = min(rank, dim_s)
    dim_k = rank + spare
    model = build_model(orthonormal_family(dim_s, rank, rng), dim_k)
    block = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    grids = rng.standard_normal((*grid_batch, dim_s, dim_k)) + 1j * rng.standard_normal(
        (*grid_batch, dim_s, dim_k)
    )
    turned = dynamics._rotate_planes(model.phi, block, grids)
    assert turned.shape == grids.shape
    dense = dense_oracle.plane_map(model.phi, dim_k, block)
    expected = (grids.reshape(-1, dim_s * dim_k) @ dense.T).reshape(grids.shape)
    assert numerics.max_abs(turned - expected) <= 1e-12


# ---------------------------------------------------------------------------
# correlating evolution and dynamic purification


def test_correlation_leaves_the_ready_slot_alone():
    model = build_model(np.eye(2, dtype=complex), 2)
    report = verification_report(model, EvolutionParams.canonical())
    assert report.fidelities[0] > 1 - 1e-12


def test_correlation_moves_phi1_to_slot_one():
    model = build_model(np.eye(2, dtype=complex), 2)
    start = np.kron(KET1, KET0).reshape(2, 2)
    moved = evolution_numeric(model, EvolutionParams.canonical(), start)
    np.testing.assert_allclose(moved.reshape(-1), np.kron(KET1, KET1), atol=1e-12)


@given(seed=st.integers(0, 2**32 - 1))
@settings(max_examples=30, deadline=None)
def test_correlation_holds_for_random_dim6_bases(seed):
    rng = np.random.default_rng(seed)
    phi = orthonormal_family(6, 6, rng)
    model = build_model(phi, 6)
    report = verification_report(model, EvolutionParams.canonical())
    assert np.min(report.fidelities) >= 1 - 1e-10


def test_dynamic_purification_of_pure_state_is_untouched():
    spec = spectral_ensemble(density_matrix(Ensemble(2, [1.0], [KET0])))
    psi = purify_via_dynamics(spec)
    assert numerics.state_fidelity(psi.amplitudes, KET0) > 1 - 1e-12


def test_dynamic_purification_matches_static_on_balanced_mixture():
    spec = balanced_spectral()
    dynamic = purify_via_dynamics(spec)
    static = purify(spec, spec.rank)
    assert numerics.state_fidelity(dynamic.amplitudes, static.amplitudes) >= 1 - 1e-9


@given(dim=st.integers(2, 16), count=st.integers(1, 16), seed=st.integers(0, 2**32 - 1))
@settings(max_examples=40, deadline=None)
def test_dynamic_purification_matches_static_on_random_mixtures(dim, count, seed):
    rng = np.random.default_rng(seed)
    spec = spectral_ensemble(density_matrix(random_ensemble(dim, count, rng)))
    dynamic = purify_via_dynamics(spec)
    static = purify(spec, spec.rank)
    assert numerics.state_fidelity(dynamic.amplitudes, static.amplitudes) >= 1 - 1e-9
    # equal up to one global phase, entry by entry
    overlap = np.vdot(static.amplitudes, dynamic.amplitudes)
    aligned = overlap / abs(overlap) * static.amplitudes
    assert numerics.max_abs(dynamic.amplitudes - aligned) <= 1e-12


@given(
    dim=st.integers(1, 16),
    rank=st.integers(1, 16),
    omega=st.sampled_from([1.0, 2.5, 0.1]),
    turns=st.integers(0, 3),
    from_rho=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
@settings(max_examples=40, deadline=None)
def test_dynamic_purification_is_the_model_propagator_bit_for_bit(
    dim, rank, omega, turns, from_rho, seed
):
    # the oracle builds the model purify_via_dynamics no longer builds
    rng = np.random.default_rng(seed)
    rank = min(rank, dim)
    if from_rho:
        spec = spectral_ensemble(density_matrix(random_ensemble(dim, rank, rng)))
    else:
        spec = drawn_spectral(dim, rank, rng)
    params = EvolutionParams(omega, (math.pi / 2 + 2 * math.pi * turns) / omega)
    params.require_correlating()
    grid = np.zeros((dim, spec.rank), dtype=complex)
    grid[:, 0] = spec.weighted_states.sum(axis=1)
    oracle = evolution_numeric(build_model(spec.states, spec.rank), params, grid)
    psi = purify_via_dynamics(spec, params)
    assert (psi.dim_s, psi.dim_k) == (dim, spec.rank)
    np.testing.assert_array_equal(psi.amplitudes, oracle.reshape(-1))


@given(dim=st.integers(3, 16), rank=st.integers(3, 16), seed=st.integers(0, 2**32 - 1))
@settings(max_examples=30, deadline=None)
def test_dynamic_purification_refuses_the_cross_products_the_model_refuses(dim, rank, seed):
    # row 2 leans 5e-11 toward row 1: admitted as a spectral ensemble, whose
    # Gram gate is 1e-10, but its terms do not commute within 1e-12
    rng = np.random.default_rng(seed)
    rank = min(rank, dim)
    spec = drawn_spectral(dim, rank, rng)
    spec.states[2] += 5e-11 * spec.states[1]
    spec.states[2] /= np.linalg.norm(spec.states[2])
    spec = SpectralEnsemble(dim, spec.weights, spec.states)
    assert cross_product_max(spec.states) > numerics.TOL.commutator
    with pytest.raises(ContractViolation, match="cross-product") as refused_by_model:
        build_model(spec.states, spec.rank)
    with pytest.raises(ContractViolation) as refused_by_dynamics:
        purify_via_dynamics(spec)
    assert str(refused_by_dynamics.value) == str(refused_by_model.value)


def test_verification_report_reads_the_validated_maxima():
    rng = np.random.default_rng(5)
    model = build_model(orthonormal_family(4, 3, rng), 4)
    report = verification_report(model, EvolutionParams.canonical())
    assert report.cross_product_maximum == cross_product_max(model.phi) == commutator_max(model.phi)


@given(
    dim_s=st.integers(1, 12),
    rank=st.integers(1, 12),
    spare=st.integers(0, 2),
    push=st.floats(0.0, 5e-11),
    turns=st.integers(-3, 3),
    phase=st.floats(-10.0, 10.0),
    seed=st.integers(0, 2**32 - 1),
)
@example(dim_s=1, rank=1, spare=0, push=0.0, turns=0, phase=0.3, seed=0)
@example(dim_s=12, rank=12, spare=2, push=5e-11, turns=3, phase=-2.0, seed=12)
@settings(max_examples=30, deadline=None)
def test_the_gram_formulas_match_the_probe_evolution(
    dim_s, rank, spare, push, turns, phase, seed
):
    rng = np.random.default_rng(seed)
    dim_k = rank + spare
    phi = orthonormal_family(max(dim_s, rank), rank, rng)
    model = build_model(phi, dim_k)
    if rank > 2:
        # lean the last state toward phi_1 inside the Gram gate; the model's
        # cross-product gate would refuse it, but the formulas hold for any
        # rows, so the leaned rows replace the validated ones
        leaned = phi.copy()
        leaned[-1] += push * phi[1]
        leaned[-1] /= np.linalg.norm(leaned[-1])
        model.phi = leaned
    quarter = EvolutionParams(1.0, math.pi / 2 + 2 * math.pi * turns)
    report = verification_report(model, quarter)
    fidelities, gap, powers = dense_oracle.probe_report(
        model.phi, dim_k, dense_oracle.plane_block(quarter.phase())
    )
    np.testing.assert_allclose(report.fidelities, fidelities, rtol=0, atol=1e-14)
    assert abs(report.closed_vs_numeric - gap) <= 1e-14
    np.testing.assert_allclose(
        np.column_stack([report.odd_residuals, report.even_residuals]),
        powers,
        rtol=0,
        atol=1e-14,
    )
    if rank == 1:  # no planes: both maps are the identity
        assert report.closed_vs_numeric == gap == 0.0
    params = EvolutionParams(1.0, phase)
    fidelities, _, _ = dense_oracle.probe_report(
        model.phi, dim_k, dense_oracle.plane_block(phase)
    )
    alone = dynamics._fidelities(model.gram, dynamics._numeric_block(params))
    np.testing.assert_allclose(alone, fidelities, rtol=0, atol=1e-14)


@given(
    dim_s=st.integers(1, 8),
    rank=st.integers(1, 8),
    spare=st.integers(0, 2),
    seed=st.integers(0, 2**32 - 1),
)
@settings(max_examples=40, deadline=None)
def test_the_gram_formulas_hold_for_any_rows_and_any_block(dim_s, rank, spare, seed):
    # rows of norms 0.5-1.5 with O(1) overlaps and a block with four distinct
    # entries, so each term of each formula shows
    rng = np.random.default_rng(seed)
    rows = rng.standard_normal((rank, dim_s)) + 1j * rng.standard_normal((rank, dim_s))
    rows *= rng.uniform(0.5, 1.5, (rank, 1)) / np.linalg.norm(rows, axis=1, keepdims=True)
    block = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    fidelities, gap, powers = dense_oracle.probe_report(rows, rank + spare, block)
    gram, peaks = dynamics._gram(rows), dynamics._row_peaks(rows)
    # like every fidelity of the package, the report's are clamped at 1
    np.testing.assert_allclose(
        dynamics._fidelities(gram, block),
        np.minimum(fidelities, 1.0),
        rtol=1e-13,
        atol=1e-14,
    )
    delta = dynamics.QUARTER_TURN - block
    np.testing.assert_allclose(
        dynamics._plane_map_gap(rows, gram, peaks, delta), gap, rtol=1e-13, atol=1e-14
    )
    np.testing.assert_allclose(
        np.column_stack(dynamics._power_residuals(gram, peaks)),
        powers,
        rtol=1e-13,
        atol=1e-14,
    )


def test_one_verification_and_one_purification_evolve_once_and_decompose_nothing(monkeypatch):
    # the report reads phi's Gram matrix; only the purification evolves a
    # state, through the plane kernel, and it builds no second model; the
    # plane block is formed in closed form, with no exponential
    spec = spectral_ensemble(density_matrix(random_ensemble(5, 4, np.random.default_rng(13))))
    calls = Counter()

    def counted(owner, name):
        original = getattr(owner, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(owner, name, wrapper)

    counted(numerics, "hermitian_eig")
    counted(dynamics, "_rotate_planes")
    counted(HamiltonianModel, "__post_init__")
    counted(np, "exp")
    model = build_model(spec.states, spec.rank)
    report = verification_report(model, EvolutionParams.canonical())
    purify_via_dynamics(spec)
    assert report.passed()
    assert calls["__post_init__"] == 1
    assert calls["_rotate_planes"] == 1
    assert calls["hermitian_eig"] == 0
    assert calls["exp"] == 0


def test_verification_report_covers_all_checks():
    rng = np.random.default_rng(2)
    phi = orthonormal_family(3, 3, rng)
    model = build_model(phi, 3)
    report = verification_report(model, EvolutionParams.canonical())
    assert report.passed()
    text = report.render()
    assert "correlation infidelity" in text
    assert "square-projector residual" in text
    assert "commutator maximum" in text
    assert "closed form vs numeric" in text
    assert "FAIL" not in text


def test_memory_follows_the_factored_size():
    # one dense operator on S (x) K at dim 64, rank 64 would take 268 MB
    spec = spectral_ensemble(
        density_matrix(random_ensemble(64, 64, np.random.default_rng(64)))
    )
    assert spec.rank == 64
    tracemalloc.start()
    try:
        start = time.perf_counter()
        model = build_model(spec.states, spec.rank)
        report = verification_report(model, EvolutionParams.canonical())
        purify_via_dynamics(spec)
        elapsed = time.perf_counter() - start
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert report.passed()
    assert peak < 64 * 2**20, f"peak {peak / 2**20:.1f} MB after {elapsed:.2f} s"


def test_the_report_memory_follows_phi():
    # G and phi^T G take 0.5 MB at this size; 2n probe grids of dim_s x dim_k would take 338 MB
    model = build_model(orthonormal_family(128, 128, np.random.default_rng(128)), 128)
    tracemalloc.start()
    try:
        start = time.perf_counter()
        report = verification_report(model, EvolutionParams.canonical())
        elapsed = time.perf_counter() - start
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert report.passed()
    assert peak < 4 * 2**20, f"peak {peak / 2**20:.1f} MB"
    assert elapsed < 1.0, f"{elapsed:.2f} s"
