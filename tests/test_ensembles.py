"""Tests for the ensemble / density-matrix model and the equivalence relation."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from purifykit import numerics
from purifykit.ensembles import (
    DensityMatrix,
    Ensemble,
    SpectralEnsemble,
    are_equivalent,
    density_deviation,
    density_matrix,
    random_density_matrix,
    random_ensemble,
    random_equivalent_ensemble,
    spectral_ensemble,
)
from purifykit.errors import (
    CountTooSmall,
    DimensionMismatch,
    InvalidEnsemble,
    NotADensityMatrix,
)

KET0 = np.array([1.0, 0.0], dtype=complex)
KET1 = np.array([0.0, 1.0], dtype=complex)
PLUS = np.array([1.0, 1.0], dtype=complex) / np.sqrt(2)
MINUS = np.array([1.0, -1.0], dtype=complex) / np.sqrt(2)


def mix(*pairs, dim=2):
    weights = [w for w, _ in pairs]
    states = [s for _, s in pairs]
    return Ensemble(dim, np.array(weights), np.array(states))


# ---------------------------------------------------------------------------
# construction invariants


def test_weights_must_sum_to_one():
    with pytest.raises(InvalidEnsemble):
        mix((0.5, KET0), (0.6, KET1))


def test_weights_must_be_positive():
    with pytest.raises(InvalidEnsemble):
        mix((1.2, KET0), (-0.2, KET1))


def test_states_must_be_normalized():
    with pytest.raises(InvalidEnsemble):
        mix((1.0, np.array([1.0, 1.0])))


def test_weight_and_state_counts_must_match():
    with pytest.raises(InvalidEnsemble):
        Ensemble(2, np.array([1.0]), np.array([KET0, KET1]))


def test_repeated_states_are_kept():
    doubled = mix((0.5, KET0), (0.5, KET0))
    assert doubled.size == 2
    assert are_equivalent(doubled, mix((1.0, KET0)), 1e-12)


def test_density_matrix_type_rejects_non_hermitian():
    with pytest.raises(NotADensityMatrix):
        DensityMatrix(2, np.array([[1.0, 0.5], [0.0, 0.0]]))


def test_density_matrix_type_rejects_wrong_trace():
    with pytest.raises(NotADensityMatrix):
        DensityMatrix(2, np.eye(2))


def test_density_matrix_type_rejects_negative_eigenvalue():
    with pytest.raises(NotADensityMatrix):
        DensityMatrix(2, np.diag([1.5, -0.5]))


def test_spectral_type_requires_orthonormal_states():
    with pytest.raises(InvalidEnsemble):
        SpectralEnsemble(mix((0.5, KET0), (0.5, PLUS)), rank=2)


def test_spectral_type_requires_sorted_weights():
    with pytest.raises(InvalidEnsemble):
        SpectralEnsemble(mix((0.3, KET0), (0.7, KET1)), rank=2)


# ---------------------------------------------------------------------------
# density_matrix


def test_density_of_single_pure_state():
    rho = density_matrix(mix((1.0, KET0)))
    np.testing.assert_allclose(rho.matrix, np.diag([1.0, 0.0]), atol=1e-15)


def test_density_of_balanced_computational_mixture():
    rho = density_matrix(mix((0.5, KET0), (0.5, KET1)))
    np.testing.assert_allclose(rho.matrix, np.eye(2) / 2, atol=1e-15)


def test_distinct_ensembles_can_share_a_density_matrix():
    rho_z = density_matrix(mix((0.5, KET0), (0.5, KET1)))
    rho_x = density_matrix(mix((0.5, PLUS), (0.5, MINUS)))
    np.testing.assert_allclose(rho_x.matrix, rho_z.matrix, atol=1e-15)


# ---------------------------------------------------------------------------
# spectral_ensemble


def test_spectral_of_diagonal_density():
    spec = spectral_ensemble(DensityMatrix(2, np.diag([0.7, 0.3])))
    np.testing.assert_allclose(spec.weights, [0.7, 0.3])
    assert numerics.state_fidelity(spec.states[0], KET0) > 1 - 1e-12
    assert numerics.state_fidelity(spec.states[1], KET1) > 1 - 1e-12


def test_spectral_of_degenerate_density():
    spec = spectral_ensemble(DensityMatrix(2, np.eye(2) / 2))
    np.testing.assert_allclose(spec.weights, [0.5, 0.5])
    gram = spec.states @ numerics.dag(spec.states)
    assert numerics.max_abs(gram - np.eye(2)) <= 1e-12


def test_spectral_discards_null_eigenvalues():
    spec = spectral_ensemble(density_matrix(mix((1.0, PLUS))))
    assert spec.rank == 1
    assert numerics.state_fidelity(spec.states[0], PLUS) > 1 - 1e-12


def test_spectral_round_trip_dim3():
    rng = np.random.default_rng(3)
    ens = random_ensemble(3, 4, rng)
    rho = density_matrix(ens)
    rebuilt = density_matrix(spectral_ensemble(rho).base)
    assert numerics.max_abs(rebuilt.matrix - rho.matrix) <= 1e-9


@given(dim=st.integers(2, 6), count=st.integers(1, 10), seed=st.integers(0, 2**32 - 1))
@settings(max_examples=60, deadline=None)
def test_spectral_round_trip_and_weight_vector(dim, count, seed):
    rng = np.random.default_rng(seed)
    rho = density_matrix(random_ensemble(dim, count, rng))
    spec = spectral_ensemble(rho)
    rebuilt = density_matrix(spec.base)
    assert numerics.max_abs(rebuilt.matrix - rho.matrix) <= 1e-9
    assert np.all(spec.weights > 0)
    assert np.all(np.diff(spec.weights) <= 0)
    assert abs(spec.weights.sum() - 1.0) <= 1e-9


# ---------------------------------------------------------------------------
# are_equivalent


def test_computational_and_diagonal_mixtures_are_equivalent():
    assert are_equivalent(
        mix((0.5, KET0), (0.5, KET1)), mix((0.5, PLUS), (0.5, MINUS)), 1e-9
    )


def test_biased_mixture_is_not_equivalent_to_balanced():
    assert not are_equivalent(
        mix((0.6, KET0), (0.4, KET1)), mix((0.5, KET0), (0.5, KET1)), 1e-9
    )


def test_permuting_an_ensemble_preserves_equivalence():
    original = mix((0.3, KET0), (0.7, PLUS))
    permuted = mix((0.7, PLUS), (0.3, KET0))
    assert are_equivalent(original, permuted, 1e-12)


def test_equivalence_requires_matching_dimensions():
    with pytest.raises(DimensionMismatch):
        are_equivalent(mix((1.0, KET0)), Ensemble(3, [1.0], [[1, 0, 0]]))


def test_density_deviation_is_the_largest_density_matrix_entry_difference():
    balanced = mix((0.5, KET0), (0.5, KET1))
    biased = mix((0.6, KET0), (0.4, KET1))
    assert density_deviation(balanced, biased) == pytest.approx(0.1, abs=1e-15)
    assert density_deviation(balanced, mix((0.5, PLUS), (0.5, MINUS))) <= 1e-15
    assert not are_equivalent(balanced, biased, 0.099)
    assert are_equivalent(balanced, biased, 0.101)
    with pytest.raises(DimensionMismatch):
        density_deviation(balanced, Ensemble(3, [1.0], [[1, 0, 0]]))


@given(seed=st.integers(0, 2**32 - 1))
@settings(max_examples=30, deadline=None)
def test_equivalence_is_an_equivalence_relation(seed):
    rng = np.random.default_rng(seed)
    rho = random_density_matrix(3, 2, rng)
    members = [
        random_equivalent_ensemble(rho, 3, seed=int(rng.integers(2**31)))
        for _ in range(3)
    ]
    for e in members:
        assert are_equivalent(e, e, 1e-9)  # reflexive
    for a in members:
        for b in members:
            assert are_equivalent(a, b, 1e-9) == are_equivalent(b, a, 1e-9)
            assert are_equivalent(a, b, 1e-9)  # all share rho, so transitivity too


# ---------------------------------------------------------------------------
# random_equivalent_ensemble


def test_random_equivalent_of_pure_state_is_the_state():
    rho = DensityMatrix(2, np.diag([1.0, 0.0]))
    ens = random_equivalent_ensemble(rho, 1, seed=9)
    assert ens.size == 1
    np.testing.assert_allclose(ens.weights, [1.0])
    assert numerics.state_fidelity(ens.states[0], KET0) > 1 - 1e-12


def test_random_equivalent_of_maximally_mixed():
    rho = DensityMatrix(2, np.eye(2) / 2)
    ens = random_equivalent_ensemble(rho, 3, seed=42)
    assert ens.size == 3
    assert abs(ens.weights.sum() - 1.0) <= 1e-12
    assert numerics.max_abs(density_matrix(ens).matrix - rho.matrix) <= 1e-12


def test_random_equivalent_weights_need_not_match_spectrum():
    rho = DensityMatrix(2, np.diag([0.7, 0.3]))
    ens = random_equivalent_ensemble(rho, 2, seed=1)
    assert numerics.max_abs(density_matrix(ens).matrix - rho.matrix) <= 1e-12


def test_random_equivalent_rejects_count_below_rank():
    rho = DensityMatrix(2, np.eye(2) / 2)
    with pytest.raises(CountTooSmall):
        random_equivalent_ensemble(rho, 1, seed=0)


def test_random_equivalent_is_deterministic_per_seed():
    rho = DensityMatrix(2, np.diag([0.7, 0.3]))
    first = random_equivalent_ensemble(rho, 4, seed=77)
    second = random_equivalent_ensemble(rho, 4, seed=77)
    np.testing.assert_array_equal(first.weights, second.weights)
    np.testing.assert_array_equal(first.states, second.states)


@given(
    dim=st.integers(2, 5),
    count=st.integers(0, 6),
    seed=st.integers(0, 2**31 - 1),
)
@settings(max_examples=40, deadline=None)
def test_many_ensembles_one_density_matrix(dim, count, seed):
    rng = np.random.default_rng(seed)
    rank = int(rng.integers(1, dim + 1))
    rho = random_density_matrix(dim, rank, rng)
    ens = random_equivalent_ensemble(rho, rank + count, seed=seed)
    assert ens.size == rank + count
    assert numerics.max_abs(density_matrix(ens).matrix - rho.matrix) <= 1e-9
    spectral = spectral_ensemble(rho)
    assert are_equivalent(ens, spectral.base, 1e-9)
