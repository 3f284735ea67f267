"""Tests for the correlating Hamiltonian, its algebra, and the evolution."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from purifykit import numerics
from purifykit.dynamics import (
    EvolutionParams,
    build_model,
    build_term,
    commutator_max,
    cross_product_max,
    evolution_closed_form,
    evolution_numeric,
    power_identities_check,
    purify_via_dynamics,
    verification_report,
    verify_correlating_evolution,
)
from purifykit.ensembles import (
    Ensemble,
    SpectralEnsemble,
    density_matrix,
    random_ensemble,
    spectral_ensemble,
)
from purifykit.errors import ContractViolation, IndexOutOfRange
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
    base = Ensemble(2, np.array([0.5, 0.5]), np.array([KET0, KET1]))
    return SpectralEnsemble(base, rank=2)


# ---------------------------------------------------------------------------
# build_term


def test_term_zero_vanishes():
    phi = np.eye(2, dtype=complex)
    np.testing.assert_array_equal(build_term(0, phi, 2), np.zeros((4, 4)))


def test_term_one_matches_dyad_oracle_and_frozen_entries():
    phi = np.eye(2, dtype=complex)
    term = build_term(1, phi, 2)
    np.testing.assert_allclose(term, dyad_oracle(1, phi, 2), atol=1e-15)
    # lone antisymmetric pair: (S=1,K=0) -> (S=1,K=1) carries +i
    assert term[3, 2] == 1j
    assert term[2, 3] == -1j
    assert numerics.max_abs(term) == 1.0


def test_term_rejects_out_of_range_index():
    phi = np.eye(2, dtype=complex)
    with pytest.raises(IndexOutOfRange):
        build_term(2, phi, 2)
    with pytest.raises(IndexOutOfRange):
        build_term(-1, phi, 2)
    with pytest.raises(IndexOutOfRange):
        build_term(1, phi[:1], 3)


@given(dim=st.integers(2, 6), seed=st.integers(0, 2**32 - 1))
@settings(max_examples=50, deadline=None)
def test_terms_are_hermitian_and_match_the_oracle(dim, seed):
    rng = np.random.default_rng(seed)
    phi = orthonormal_family(dim, dim, rng)
    for j in range(dim):
        term = build_term(j, phi, dim)
        assert numerics.max_abs(term - numerics.dag(term)) <= 1e-15
        np.testing.assert_allclose(term, dyad_oracle(j, phi, dim), atol=1e-15)


# ---------------------------------------------------------------------------
# power identities


def test_power_identities_for_zero_term():
    phi = np.eye(2, dtype=complex)
    report = power_identities_check(build_term(0, phi, 2), phi[0], 2)
    assert report.reference_index == 0
    assert report.odd_residual == 0.0
    assert report.even_residual == 0.0


def test_power_identities_for_nontrivial_term():
    phi = np.eye(2, dtype=complex)
    report = power_identities_check(build_term(1, phi, 2), phi[1], 2)
    assert report.reference_index == 1
    assert report.odd_residual <= 1e-12
    assert report.even_residual <= 1e-12


def test_power_identities_on_random_basis_dim5():
    rng = np.random.default_rng(55)
    phi = orthonormal_family(5, 5, rng)
    for j in range(5):
        report = power_identities_check(build_term(j, phi, 5), phi[j], 5)
        assert report.reference_index == j
        assert report.odd_residual <= 1e-12
        assert report.even_residual <= 1e-12


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


# ---------------------------------------------------------------------------
# model-level algebra


@given(dim=st.integers(2, 8), seed=st.integers(0, 2**32 - 1))
@settings(max_examples=30, deadline=None)
def test_terms_commute_and_annihilate_each_other(dim, seed):
    rng = np.random.default_rng(seed)
    phi = orthonormal_family(dim, dim, rng)
    model = build_model(phi, dim)
    assert commutator_max(model.terms) <= 1e-12
    assert cross_product_max(model.terms) <= 1e-12
    # every other term annihilates phi_j (x) e_0
    ready = numerics.basis_state(dim, 0)
    for j in range(dim):
        joint = np.kron(phi[j], ready)
        for k in range(dim):
            if k != j:
                assert numerics.max_abs(model.terms[k] @ joint) <= 1e-12


# ---------------------------------------------------------------------------
# evolution, closed form vs numeric


def test_closed_form_of_trivial_model_is_identity():
    spec = spectral_ensemble(density_matrix(Ensemble(2, [1.0], [KET0])))
    model = build_model(spec.states, spec.rank)
    np.testing.assert_allclose(evolution_closed_form(model), np.eye(2), atol=1e-15)


def test_closed_form_single_term_literal():
    model = build_model(np.eye(2, dtype=complex), 2)
    term = model.terms[1]
    expected = np.eye(4) - term @ term - 1j * term
    # the j = 0 factor is the identity, so the product collapses to one factor
    np.testing.assert_allclose(evolution_closed_form(model), expected, atol=1e-14)


@given(dim=st.integers(2, 6), seed=st.integers(0, 2**32 - 1))
@settings(max_examples=40, deadline=None)
def test_closed_form_equals_sum_expansion(dim, seed):
    # cross-products vanish, so the product telescopes to I - sum(H^2 + iH)
    rng = np.random.default_rng(seed)
    phi = orthonormal_family(dim, dim, rng)
    model = build_model(phi, dim)
    expansion = np.eye(dim * dim, dtype=complex)
    for term in model.terms:
        expansion = expansion - term @ term - 1j * term
    np.testing.assert_allclose(evolution_closed_form(model), expansion, atol=1e-12)


def test_numeric_matches_closed_form_at_quarter_turn():
    rng = np.random.default_rng(8)
    phi = orthonormal_family(4, 4, rng)
    model = build_model(phi, 4)
    closed = evolution_closed_form(model)
    for params in (EvolutionParams(1.0, math.pi / 2), EvolutionParams(1.0, math.pi / 2 + 2 * math.pi)):
        assert params.is_correlating()
        numeric = evolution_numeric(model, params)
        assert numerics.max_abs(closed - numeric) <= 1e-10


def test_numeric_is_unitary_even_off_the_quarter_turn():
    model = build_model(np.eye(2, dtype=complex), 2)
    params = EvolutionParams(1.0, math.pi)
    assert not params.is_correlating()
    with pytest.raises(ContractViolation):
        params.require_correlating()
    u = evolution_numeric(model, params)
    assert numerics.max_abs(u @ numerics.dag(u) - np.eye(4)) <= 1e-10


# ---------------------------------------------------------------------------
# correlating evolution and dynamic purification


def test_correlation_leaves_the_ready_slot_alone():
    model = build_model(np.eye(2, dtype=complex), 2)
    report = verify_correlating_evolution(model, EvolutionParams.canonical())
    assert report.fidelities[0] > 1 - 1e-12


def test_correlation_moves_phi1_to_slot_one():
    model = build_model(np.eye(2, dtype=complex), 2)
    u = evolution_numeric(model, EvolutionParams.canonical())
    moved = u @ np.kron(KET1, KET0)
    np.testing.assert_allclose(moved, np.kron(KET1, KET1), atol=1e-12)


@given(seed=st.integers(0, 2**32 - 1))
@settings(max_examples=30, deadline=None)
def test_correlation_holds_for_random_dim6_bases(seed):
    rng = np.random.default_rng(seed)
    phi = orthonormal_family(6, 6, rng)
    model = build_model(phi, 6)
    report = verify_correlating_evolution(model, EvolutionParams.canonical())
    assert report.min_fidelity >= 1 - 1e-10


def test_dynamic_purification_of_pure_state_is_untouched():
    spec = spectral_ensemble(density_matrix(Ensemble(2, [1.0], [KET0])))
    psi = purify_via_dynamics(spec)
    assert numerics.state_fidelity(psi.amplitudes, KET0) > 1 - 1e-12


def test_dynamic_purification_matches_static_on_balanced_mixture():
    spec = balanced_spectral()
    dynamic = purify_via_dynamics(spec)
    static = purify(spec, spec.rank)
    assert numerics.state_fidelity(dynamic.amplitudes, static.amplitudes) >= 1 - 1e-9


@given(dim=st.integers(2, 5), count=st.integers(1, 6), seed=st.integers(0, 2**32 - 1))
@settings(max_examples=40, deadline=None)
def test_dynamic_purification_matches_static_on_random_mixtures(dim, count, seed):
    rng = np.random.default_rng(seed)
    spec = spectral_ensemble(density_matrix(random_ensemble(dim, count, rng)))
    dynamic = purify_via_dynamics(spec)
    static = purify(spec, spec.rank)
    assert numerics.state_fidelity(dynamic.amplitudes, static.amplitudes) >= 1 - 1e-9


def test_verification_report_reads_the_validated_maxima():
    rng = np.random.default_rng(5)
    model = build_model(orthonormal_family(4, 3, rng), 4)
    report = verification_report(model, EvolutionParams.canonical())
    assert report.commutator_maximum == commutator_max(model.terms)
    assert report.cross_product_maximum == cross_product_max(model.terms)


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
