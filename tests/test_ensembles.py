"""Tests for the ensemble / density-matrix model and the equivalence relation."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import steering_oracle
from purifykit import numerics
from purifykit.ensembles import (
    DensityMatrix,
    Ensemble,
    SpectralEnsemble,
    _weighted_projector_sum,
    are_equivalent,
    density_deviation,
    density_matrix,
    random_density_matrix,
    random_ensemble,
    random_equivalent_ensemble,
    spectral_ensemble,
)
from purifykit.errors import (
    ContractViolation,
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


@pytest.mark.parametrize(
    "weights, refused",
    [
        (np.array([0.5 + 1j, 0.5]), True),
        ([0.5 + 1j, 0.5], True),
        (np.array([0.5, 0.5]), False),
    ],
    ids=["complex-array", "complex-list", "real-array"],
)
def test_complex_weights_are_refused_not_cast(weights, refused):
    # numpy's float cast would keep [0.5, 0.5] and only warn
    if refused:
        with pytest.raises(DimensionMismatch, match="complex"):
            Ensemble(2, weights, [KET0, KET1])
    else:
        np.testing.assert_array_equal(Ensemble(2, weights, [KET0, KET1]).weights, [0.5, 0.5])


@pytest.mark.parametrize("dim", [True, 1.0, "1", 0, -1])
def test_ensemble_dimension_must_be_a_positive_integer(dim):
    with pytest.raises(InvalidEnsemble, match="dim must be a positive integer"):
        Ensemble(dim, [1.0], [[1]])
    assert type(Ensemble(np.int64(1), [1.0], [[1]]).dim) is int


def test_repeated_states_are_kept():
    doubled = mix((0.5, KET0), (0.5, KET0))
    assert doubled.size == 2
    assert are_equivalent(doubled, mix((1.0, KET0)), 1e-12)


@pytest.mark.parametrize("dim", [True, 1.0, "1", 0, -1])
def test_density_matrix_dimension_must_be_a_positive_integer(dim):
    with pytest.raises(NotADensityMatrix, match="dim must be a positive integer"):
        DensityMatrix(dim, [[1]])
    assert type(DensityMatrix(np.int32(1), [[1]]).dim) is int


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
        SpectralEnsemble(2, [0.5, 0.5], [KET0, PLUS])


def test_spectral_type_requires_sorted_weights():
    with pytest.raises(InvalidEnsemble):
        SpectralEnsemble(2, [0.3, 0.7], [KET0, KET1])


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


def test_density_matrix_keeps_the_decomposition_hermitian_eig_returns():
    rho = random_density_matrix(5, 3, np.random.default_rng(5))
    values, vectors = numerics.hermitian_eig(rho.matrix)
    np.testing.assert_array_equal(rho.eigenvalues, values)
    np.testing.assert_array_equal(rho.eigenvectors, vectors)


def test_spectral_ensemble_reuses_the_stored_decomposition(monkeypatch):
    rho = random_density_matrix(6, 4, np.random.default_rng(6))
    calls = []

    def recording(name):
        original = getattr(np.linalg, name)

        def wrapper(*args, **kwargs):
            calls.append(name)
            return original(*args, **kwargs)

        return wrapper

    for name in ("eigh", "eigvalsh"):
        monkeypatch.setattr(np.linalg, name, recording(name))
    spec = spectral_ensemble(rho)
    assert calls == []
    assert spec.rank == 4


def test_spectral_discards_null_eigenvalues():
    spec = spectral_ensemble(density_matrix(mix((1.0, PLUS))))
    assert spec.rank == 1
    assert numerics.state_fidelity(spec.states[0], PLUS) > 1 - 1e-12


def test_spectral_round_trip_dim3():
    rng = np.random.default_rng(3)
    ens = random_ensemble(3, 4, rng)
    rho = density_matrix(ens)
    rebuilt = density_matrix(spectral_ensemble(rho))
    assert numerics.max_abs(rebuilt.matrix - rho.matrix) <= 1e-9


@given(dim=st.integers(2, 6), count=st.integers(1, 10), seed=st.integers(0, 2**32 - 1))
@settings(max_examples=60, deadline=None)
def test_spectral_round_trip_and_weight_vector(dim, count, seed):
    rng = np.random.default_rng(seed)
    rho = density_matrix(random_ensemble(dim, count, rng))
    spec = spectral_ensemble(rho)
    assert isinstance(spec, Ensemble) and spec.rank == spec.size
    rebuilt = density_matrix(spec)
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


@given(
    dim=st.integers(1, 16),
    count=st.integers(1, 32),
    distinct=st.integers(1, 32),
    seed=st.integers(0, 2**32 - 1),
)
@settings(max_examples=80, deadline=None)
def test_weighted_projector_sum_matches_the_einsum_oracle(dim, count, distinct, seed):
    rng = np.random.default_rng(seed)
    pool = rng.standard_normal((distinct, dim)) + 1j * rng.standard_normal((distinct, dim))
    pool /= np.linalg.norm(pool, axis=1)[:, None]
    states = pool[rng.integers(0, distinct, count)]  # repeats whenever count > distinct
    ensemble = Ensemble(dim, rng.dirichlet(np.ones(count)), states)
    got = _weighted_projector_sum(ensemble)
    assert got.shape == (dim, dim)
    assert numerics.max_abs(got - steering_oracle.weighted_projector_sum(ensemble)) <= 1e-13
    assert density_deviation(ensemble, ensemble) == 0.0


def test_equivalence_of_valid_ensembles_ignores_the_density_trace_check():
    # weights 1e-10 over 1 in sum and states 1e-12 over unit norm are each
    # within the ensemble slack, but the summed trace is 1 + 1.01e-10
    loose = Ensemble(1, [0.5 + 0.495e-10, 0.5 + 0.495e-10], [[1 + 0.99e-12], [1 + 0.99e-12]])
    assert are_equivalent(loose, loose)
    with pytest.raises(NotADensityMatrix):
        density_matrix(loose)


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
    assert are_equivalent(ens, spectral, 1e-9)


def test_random_equivalent_gives_up_with_a_contract_violation(monkeypatch):
    # an identity mixer leaves the states past the rank with zero weight
    monkeypatch.setattr(numerics, "haar_unitary", lambda dim, rng: np.eye(dim, dtype=complex))
    rho = DensityMatrix(2, np.diag([0.7, 0.3]))
    with pytest.raises(ContractViolation, match="64 draws"):
        random_equivalent_ensemble(rho, 3, seed=0)


# ---------------------------------------------------------------------------
# random generators


def test_random_generators_refuse_a_floor_the_weights_cannot_clear():
    rng = np.random.default_rng(0)
    with pytest.raises(InvalidEnsemble):
        random_density_matrix(1000, 1000, rng)  # 1000 eigenvalues of at least 1e-3
    with pytest.raises(InvalidEnsemble):
        random_ensemble(2, 10, rng, min_weight=0.1)
    # nothing was drawn before the refusal
    assert rng.random() == np.random.default_rng(0).random()


def test_random_ensemble_lifts_one_dirichlet_draw_above_the_floor():
    floor, count, dim = 0.01, 50, 3
    ens = random_ensemble(dim, count, np.random.default_rng(21), min_weight=floor)
    reference = np.random.default_rng(21)
    dirichlet = reference.dirichlet(np.ones(count))
    np.testing.assert_array_equal(ens.weights, floor + (1 - count * floor) * dirichlet)
    assert ens.weights.min() >= floor
    # the states follow in the order of one complex Gaussian vector per state
    for state in ens.states:
        vec = reference.standard_normal(dim) + 1j * reference.standard_normal(dim)
        np.testing.assert_array_equal(state, vec / np.linalg.norm(vec))


def test_random_density_matrix_keeps_every_eigenvalue_above_the_floor():
    # at rank 60 most plain Dirichlet draws have a weight below 1e-3
    rho = random_density_matrix(60, 60, np.random.default_rng(4))
    assert rho.eigenvalues.min() >= 1e-3 - 1e-12
