"""Tests for purification, steering plans, and reference measurements."""

import dataclasses
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import steering_oracle
from purifykit import cli, fileio, numerics, purification
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
    BasisNotComplete,
    BasisNotOrthonormal,
    ContractViolation,
    DimensionMismatch,
    NotEquivalent,
    NotFinite,
    ReferenceTooSmall,
    TargetOutsideSupport,
)
from purifykit.purification import (
    BipartiteState,
    MeasurementOutcome,
    SteeringPlan,
    measure_reference,
    measured_ensemble,
    prepare_ensemble,
    purify,
    steering_coefficients,
    steering_isometry,
)

KET0 = np.array([1.0, 0.0], dtype=complex)
KET1 = np.array([0.0, 1.0], dtype=complex)
PLUS = np.array([1.0, 1.0], dtype=complex) / np.sqrt(2)
MINUS = np.array([1.0, -1.0], dtype=complex) / np.sqrt(2)
HADAMARD = np.array([[1.0, 1.0], [1.0, -1.0]]) / np.sqrt(2)


def balanced_spectral():
    # built directly: the degenerate density matrix I/2 leaves the
    # eigenbasis free, and these checks pin the computational one
    return SpectralEnsemble(2, np.array([0.5, 0.5]), np.array([KET0, KET1]))


def contraction_oracle(psi, basis):
    """Explicit index loops for the unnormalized post-states."""
    grid = psi.as_grid()
    chis = []
    for b in np.asarray(basis, dtype=complex):
        chi = np.zeros(psi.dim_s, dtype=complex)
        for s in range(psi.dim_s):
            for k in range(psi.dim_k):
                chi[s] += grid[s, k] * np.conj(b[k])
        chis.append(chi)
    return chis


# ---------------------------------------------------------------------------
# purify


@pytest.mark.parametrize("dim", [True, 1.0, "1", 0, -1])
def test_bipartite_dimensions_must_be_positive_integers(dim):
    with pytest.raises(DimensionMismatch, match="dim_s must be a positive integer"):
        BipartiteState(dim, 1, [1])
    with pytest.raises(DimensionMismatch, match="dim_k must be a positive integer"):
        BipartiteState(1, dim, [1])
    psi = BipartiteState(np.int64(1), np.int32(1), [1])
    assert (type(psi.dim_s), type(psi.dim_k)) == (int, int)


def test_purify_pure_input_gives_product_state():
    spec = spectral_ensemble(density_matrix(Ensemble(2, [1.0], [PLUS])))
    psi = purify(spec, 1)
    overlap = numerics.state_fidelity(psi.amplitudes, np.kron(PLUS, [1.0]))
    assert overlap > 1 - 1e-12


def test_purify_balanced_mixture_gives_bell_type_state():
    psi = purify(balanced_spectral(), 2)
    expected = np.array([1, 0, 0, 1], dtype=complex) / np.sqrt(2)
    assert numerics.state_fidelity(psi.amplitudes, expected) > 1 - 1e-12


def test_purify_partial_trace_recovers_density():
    rng = np.random.default_rng(14)
    rho = random_density_matrix(4, 3, rng)
    psi = purify(spectral_ensemble(rho), 5)
    assert numerics.max_abs(psi.reduced_system() - rho.matrix) <= 1e-10


def test_purify_rejects_small_reference():
    with pytest.raises(ReferenceTooSmall):
        purify(balanced_spectral(), 1)


@given(dim=st.integers(2, 6), count=st.integers(1, 8), extra=st.integers(0, 3),
       seed=st.integers(0, 2**32 - 1))
@settings(max_examples=60, deadline=None)
def test_purify_partial_trace_identity(dim, count, extra, seed):
    rng = np.random.default_rng(seed)
    rho = density_matrix(random_ensemble(dim, count, rng))
    spec = spectral_ensemble(rho)
    psi = purify(spec, spec.rank + extra)
    assert numerics.max_abs(psi.reduced_system() - rho.matrix) <= 1e-10


@given(dim_s=st.integers(1, 6), rank=st.integers(1, 6), extra=st.integers(0, 4),
       seed=st.integers(0, 2**32 - 1))
@settings(max_examples=60, deadline=None)
def test_reduced_system_matches_partial_trace_of_projector(dim_s, rank, extra, seed):
    # amplitudes vanish on the padded reference columns beyond the rank
    rng = np.random.default_rng(seed)
    dim_k = rank + extra
    grid = np.zeros((dim_s, dim_k), dtype=complex)
    grid[:, :rank] = rng.standard_normal((dim_s, rank)) + 1j * rng.standard_normal(
        (dim_s, rank)
    )
    psi = BipartiteState(dim_s, dim_k, grid.reshape(-1) / np.linalg.norm(grid))
    projector = np.outer(psi.amplitudes, psi.amplitudes.conj())
    expected = numerics.partial_trace_k(projector, dim_s, dim_k)
    assert numerics.max_abs(psi.reduced_system() - expected) <= 1e-14


# ---------------------------------------------------------------------------
# steering coefficients / isometry


def test_coefficients_of_spectral_target_are_identity():
    spec = balanced_spectral()
    coeffs = steering_coefficients(spec, spec)
    np.testing.assert_allclose(coeffs, np.eye(2), atol=1e-12)


def test_coefficients_of_hadamard_target():
    spec = balanced_spectral()
    target = Ensemble(2, [0.5, 0.5], [PLUS, MINUS])
    coeffs = steering_coefficients(spec, target)
    np.testing.assert_allclose(coeffs, HADAMARD, atol=1e-12)


def test_coefficients_reject_non_equivalent_target():
    spec = balanced_spectral()
    with pytest.raises(NotEquivalent):
        steering_coefficients(spec, Ensemble(2, [0.6, 0.4], [KET0, KET1]))


def test_coefficients_reject_target_outside_support():
    # rank-1 class with two oppositely leaking target states: their
    # coherences cancel, so the density matrices agree to eps^2 and the
    # equivalence precondition passes at a loose tol, while each state
    # sticks out of the support by eps
    spec = spectral_ensemble(DensityMatrix(2, np.diag([1.0, 0.0])))
    eps = 1e-2
    up = np.array([np.sqrt(1 - eps**2), eps], dtype=complex)
    down = np.array([np.sqrt(1 - eps**2), -eps], dtype=complex)
    target = Ensemble(2, [0.5, 0.5], [up, down])
    with pytest.raises(TargetOutsideSupport):
        steering_coefficients(spec, target, tol=1e-3)


def test_isometry_of_spectral_target_is_identity_block():
    spec = balanced_spectral()
    plan = steering_isometry(spec, spec)
    np.testing.assert_allclose(plan.isometry, np.eye(2), atol=1e-12)
    np.testing.assert_allclose(plan.basis, np.eye(2), atol=1e-12)


def test_isometry_of_hadamard_target_is_hadamard():
    spec = balanced_spectral()
    target = Ensemble(2, [0.5, 0.5], [PLUS, MINUS])
    plan = steering_isometry(spec, target)
    np.testing.assert_allclose(plan.isometry, HADAMARD, atol=1e-12)
    assert plan.isometry_residual <= 1e-9


def test_isometry_rectangular_case():
    spec = balanced_spectral()
    target = random_equivalent_ensemble(density_matrix(spec), 3, seed=5)
    np.testing.assert_allclose(target.weights.sum(), 1.0)
    plan = steering_isometry(spec, target)
    assert plan.isometry.shape == (2, 3)
    assert plan.unitary.shape == (3, 3)
    assert plan.isometry_residual <= 1e-9
    np.testing.assert_allclose(plan.unitary[:2, :], plan.isometry, atol=0)


# ---------------------------------------------------------------------------
# measure_reference


def test_measure_product_state_single_outcome():
    psi = BipartiteState(2, 2, np.kron(PLUS, KET0))
    outcomes = measure_reference(psi, np.eye(2))
    assert len(outcomes) == 1 and isinstance(outcomes[0], tuple)
    assert outcomes[0].index == 0
    assert outcomes[0].probability == pytest.approx(1.0, abs=1e-12)
    assert numerics.state_fidelity(outcomes[0].post_state, PLUS) > 1 - 1e-12
    given = [0.6, 0.8]  # a record: it keeps what it is given, uncoerced
    assert MeasurementOutcome(0, 1.0, given).post_state is given


def test_measure_bell_state_in_standard_basis():
    psi = purify(balanced_spectral(), 2)
    outcomes = measure_reference(psi, np.eye(2))
    assert [o.index for o in outcomes] == [0, 1]
    for outcome, expected in zip(outcomes, (KET0, KET1)):
        assert outcome.probability == pytest.approx(0.5, abs=1e-12)
        assert numerics.state_fidelity(outcome.post_state, expected) > 1 - 1e-12


def test_measure_bell_state_in_hadamard_basis():
    psi = purify(balanced_spectral(), 2)
    basis = np.array([PLUS, MINUS])
    outcomes = measure_reference(psi, basis)
    chis = contraction_oracle(psi, basis)
    assert len(outcomes) == 2
    for outcome, chi, expected in zip(outcomes, chis, (PLUS, MINUS)):
        assert outcome.probability == pytest.approx(
            float(np.linalg.norm(chi) ** 2), abs=1e-14
        )
        assert numerics.state_fidelity(outcome.post_state, expected) > 1 - 1e-12


def test_measure_rejects_incomplete_basis():
    psi = purify(balanced_spectral(), 2)
    with pytest.raises(BasisNotComplete):
        measure_reference(psi, [KET0])


def test_measure_rejects_skewed_basis():
    psi = purify(balanced_spectral(), 2)
    with pytest.raises(BasisNotOrthonormal):
        measure_reference(psi, [KET0, PLUS])


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_measure_rejects_a_non_finite_basis(bad):
    # a NaN Gram residual compares False against any tolerance
    with pytest.raises(NotFinite):
        measure_reference(BipartiteState(1, 2, [1, 0]), [[bad, 0], [0, 1]])


@pytest.mark.parametrize(
    "call",
    [
        lambda: measure_reference(BipartiteState(1, 2, [1, 0]), [[1, 0], [0]]),
        lambda: measure_reference(BipartiteState(1, 2, [1, 0]), [["a", 0], [0, 1]]),
        # the plan checks the rows its unitary completion reads
        lambda: SteeringPlan([[1.0]], [[1, "x"]]).unitary,
        lambda: SteeringPlan([[1.0]], [[1, [0]]]).unitary,
    ],
    ids=["measure-ragged", "measure-text", "complete-text", "complete-ragged-row"],
)
def test_ragged_or_non_numeric_input_raises_a_library_error(call):
    with pytest.raises(DimensionMismatch, match="rectangular array of numbers"):
        call()


@given(
    dim_s=st.integers(1, 6),
    rank=st.integers(1, 6),
    extra=st.integers(0, 4),
    haar=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
@settings(max_examples=60, deadline=None)
def test_outcomes_match_the_per_column_loop_bit_for_bit(dim_s, rank, extra, haar, seed):
    rng = np.random.default_rng(seed)
    rho = random_density_matrix(dim_s, min(rank, dim_s), rng)
    spec = spectral_ensemble(rho)
    psi = purify(spec, spec.rank + extra)
    # the standard basis leaves every outcome from the rank onward at zero probability
    columns = numerics.haar_unitary(psi.dim_k, rng) if haar else np.eye(psi.dim_k, dtype=complex)
    got = purification._outcomes(*purification._measure(psi.as_grid(), columns))
    expected = steering_oracle.outcomes(psi, columns)
    assert [o.index for o in got] == [j for j, _, _ in expected]
    assert [o.probability for o in got] == [p for _, p, _ in expected]
    for outcome, (_, _, post) in zip(got, expected):
        assert type(outcome.index) is int and type(outcome.probability) is float
        np.testing.assert_array_equal(outcome.post_state, post)
    if not haar:
        assert [o.index for o in got] == list(range(spec.rank))


@given(dim=st.integers(2, 6), extra=st.integers(0, 6), seed=st.integers(0, 2**32 - 1))
@settings(max_examples=50, deadline=None)
def test_state_infidelity_is_the_per_state_loop_maximum(dim, extra, seed):
    rng = np.random.default_rng(seed)
    rho = random_density_matrix(dim, int(rng.integers(1, dim + 1)), rng)
    spec = spectral_ensemble(rho)
    target = random_equivalent_ensemble(rho, spec.rank + extra, seed=seed)
    _, outcomes, report = prepare_ensemble(spec, target)
    expected = steering_oracle.state_infidelity(outcomes, target)
    assert abs(report.state_infidelity - expected) <= 1e-15


def test_state_infidelity_skips_a_target_outcome_below_the_floor():
    pure = SpectralEnsemble(2, [1.0], [KET0])
    target = Ensemble(2, [1.0 - 1e-13, 1e-13], [KET0, KET0])
    _, outcomes, report = prepare_ensemble(pure, target)
    assert [o.index for o in outcomes] == [0]
    assert report.state_infidelity == steering_oracle.state_infidelity(outcomes, target)
    assert report.passed()


def test_state_infidelity_is_zero_when_no_target_outcome_is_reached(monkeypatch):
    monkeypatch.setattr(
        purification, "TOL", dataclasses.replace(numerics.TOL, outcome_floor=2.0)
    )
    spec = balanced_spectral()
    _, outcomes, report = prepare_ensemble(spec, spec)
    assert outcomes == []
    assert report.state_infidelity == 0.0 == steering_oracle.state_infidelity(outcomes, spec)
    assert report.weight_deviation == 0.5


@given(dim=st.integers(2, 5), count=st.integers(1, 6), extra=st.integers(0, 3),
       seed=st.integers(0, 2**32 - 1))
@settings(max_examples=50, deadline=None)
def test_measurement_probabilities_sum_to_one(dim, count, extra, seed):
    rng = np.random.default_rng(seed)
    spec = spectral_ensemble(density_matrix(random_ensemble(dim, count, rng)))
    dim_k = spec.rank + extra
    psi = purify(spec, dim_k)
    basis = numerics.haar_unitary(dim_k, rng)
    outcomes = measure_reference(psi, basis)
    assert abs(sum(o.probability for o in outcomes) - 1.0) <= 1e-10


@given(dim=st.integers(2, 5), count=st.integers(1, 6), seed=st.integers(0, 2**32 - 1))
@settings(max_examples=50, deadline=None)
def test_any_complete_basis_measures_an_equivalent_ensemble(dim, count, seed):
    rng = np.random.default_rng(seed)
    source = random_ensemble(dim, count, rng)
    spec = spectral_ensemble(density_matrix(source))
    psi = purify(spec, spec.rank)
    basis = numerics.haar_unitary(spec.rank, rng)
    measured = measured_ensemble(psi, basis)
    assert are_equivalent(measured, source, 1e-9)
    # the reduced density matrix is reproduced outcome-wise as well
    rebuilt = np.einsum(
        "i,ij,ik->jk", measured.weights, measured.states, measured.states.conj()
    )
    assert numerics.max_abs(rebuilt - psi.reduced_system()) <= 1e-9


# ---------------------------------------------------------------------------
# prepare_ensemble


def test_prepare_spectral_target_recovers_it_exactly():
    spec = spectral_ensemble(DensityMatrix(2, np.diag([0.7, 0.3])))
    plan, outcomes, report = prepare_ensemble(spec, spec)
    assert [o.index for o in outcomes] == [0, 1]
    np.testing.assert_allclose(
        [o.probability for o in outcomes], [0.7, 0.3], atol=1e-12
    )
    assert report.weight_deviation <= 1e-12
    assert report.state_infidelity <= 1e-12


def test_prepare_hadamard_target():
    spec = balanced_spectral()
    target = Ensemble(2, [0.5, 0.5], [PLUS, MINUS])
    plan, outcomes, report = prepare_ensemble(spec, target)
    assert len(outcomes) == 2
    for outcome, expected in zip(outcomes, (PLUS, MINUS)):
        assert outcome.probability == pytest.approx(0.5, abs=1e-12)
        assert numerics.state_fidelity(outcome.post_state, expected) > 1 - 1e-9
    assert report.passed()


def test_prepare_rejects_small_reference():
    spec = balanced_spectral()
    target = random_equivalent_ensemble(density_matrix(spec), 4, seed=3)
    with pytest.raises(ReferenceTooSmall):
        prepare_ensemble(spec, target, dim_k=3)


@given(dim=st.integers(2, 5), extra=st.integers(0, 5), seed=st.integers(0, 2**31 - 1))
@settings(max_examples=50, deadline=None)
def test_prepare_recovers_every_random_equivalent_target(dim, extra, seed):
    rng = np.random.default_rng(seed)
    rank = int(rng.integers(1, dim + 1))
    rho = random_density_matrix(dim, rank, rng)
    spec = spectral_ensemble(rho)
    target = random_equivalent_ensemble(rho, rank + extra, seed=seed)
    plan, outcomes, report = prepare_ensemble(spec, target)
    assert report.weight_deviation <= 1e-9
    assert report.state_infidelity <= 1e-9
    assert report.isometry_residual <= 1e-9
    assert report.reconstruction_residual <= 1e-9
    assert report.passed()


def split_target(rho, count, splits, factor, seed):
    """A random equivalent ensemble whose first ``splits`` states each give a
    copy of themselves the weight ``factor`` times ``TOL.outcome_floor``."""
    base = random_equivalent_ensemble(rho, count, seed=seed)
    sliver = factor * numerics.TOL.outcome_floor
    weights = np.concatenate([base.weights, np.full(splits, sliver)])
    weights[:splits] -= sliver
    return Ensemble(rho.dim, weights, np.concatenate([base.states, base.states[:splits]]))


@given(
    data=st.data(),
    dim=st.integers(2, 24),
    # either side of the floor, never at it: a probability within rounding
    # of the floor may be kept by one evaluation order and not the other
    factor=st.sampled_from([0.5, 0.9, 1.1, 2.0]),
    extra=st.integers(0, 4),
    seed=st.integers(0, 2**31 - 1),
)
@settings(max_examples=40, deadline=None)
def test_measuring_through_the_isometry_matches_the_completed_unitary(
    data, dim, factor, extra, seed
):
    rank = data.draw(st.integers(1, dim), label="rank")
    count = data.draw(st.integers(rank, 2 * dim), label="count")
    splits = data.draw(st.integers(0, min(2, count, 2 * dim - count)), label="splits")
    rho = random_density_matrix(dim, rank, np.random.default_rng(seed))
    spec = spectral_ensemble(rho)
    target = split_target(rho, count, splits, factor, seed)
    _, outcomes, report = prepare_ensemble(spec, target, dim_k=target.size + extra)
    expected, weight_deviation, infidelity = steering_oracle.unitary_path(
        spec, target, target.size + extra
    )
    assert [o.index for o in outcomes] == [j for j, _, _ in expected]
    for outcome, (_, probability, post) in zip(outcomes, expected):
        assert abs(outcome.probability - probability) <= 1e-15
        assert numerics.max_abs(outcome.post_state - post) <= 1e-14
    assert abs(report.weight_deviation - weight_deviation) <= 1e-15
    assert abs(report.state_infidelity - infidelity) <= 1e-15


def ill_conditioned_pair(seed):
    """Spectrum {0.995, 0.001 x5} and an 8-state equivalent target perturbed by 1e-11.

    The weight ratios sqrt(p_j / d_i) amplify the perturbation by up to
    1/sqrt(0.001), so the isometry residual lands between
    TOL.orthonormality and TOL.isometry while the density matrices still
    agree far within TOL.equivalence.
    """
    rng = np.random.default_rng(seed)
    u = numerics.haar_unitary(6, rng)
    rho = DensityMatrix(6, (u * [0.995, 0.001, 0.001, 0.001, 0.001, 0.001]) @ u.conj().T)
    target = random_equivalent_ensemble(rho, 8, seed=seed)
    noise = rng.standard_normal((8, 6)) + 1j * rng.standard_normal((8, 6))
    states = target.states + 1e-11 * noise
    states /= np.linalg.norm(states, axis=1)[:, None]
    return spectral_ensemble(rho), Ensemble(6, target.weights, states)


@pytest.mark.parametrize("seed", [4, 29, 34])
def test_isometry_residual_between_the_two_orthonormality_tolerances_steers(seed, tmp_path):
    spec, target = ill_conditioned_pair(seed)
    deviation = density_deviation(spec, target)
    expected = numerics.max_abs(
        steering_oracle.weighted_projector_sum(spec)
        - steering_oracle.weighted_projector_sum(target)
    )
    assert abs(deviation - expected) <= 1e-13
    assert deviation <= numerics.TOL.equivalence
    _, _, report = prepare_ensemble(spec, target)
    assert numerics.TOL.orthonormality < report.isometry_residual <= numerics.TOL.isometry
    assert report.passed()
    source, drawn = tmp_path / "spec.ens", tmp_path / "target.ens"
    fileio.write_ensemble(source, spec)
    fileio.write_ensemble(drawn, target)
    assert cli.main(["equiv", str(source), str(drawn)]) == 0
    assert cli.main(["steer", str(source), str(drawn)]) == 0


def test_preparation_report_renders_tolerance_labels():
    spec = balanced_spectral()
    _, _, report = prepare_ensemble(spec, spec)
    text = report.render()
    assert "(tol" in text
    assert text.count("PASS") == 4


def test_reconstruction_residual_matches_kron_loop_oracle():
    rng = np.random.default_rng(31)
    rho = random_density_matrix(5, 3, rng)
    spec = spectral_ensemble(rho)
    target = random_equivalent_ensemble(rho, 6, seed=31)
    plan, _, report = prepare_ensemble(spec, target, dim_k=9)
    psi = purify(spec, plan.dim_k)
    rebuilt = np.zeros(psi.amplitudes.size, dtype=complex)
    for j in range(target.size):
        rebuilt += np.sqrt(target.weights[j]) * np.kron(target.states[j], plan.basis[j])
    expected = numerics.max_abs(psi.amplitudes - rebuilt)
    assert abs(report.reconstruction_residual - expected) <= 1e-14


def test_reconstruction_residual_matches_rank_column_kron_oracle():
    # the purified state lives on the first rank reference columns, where
    # B_j is conjugated column j of the isometry
    rng = np.random.default_rng(31)
    rho = random_density_matrix(5, 3, rng)
    spec = spectral_ensemble(rho)
    target = random_equivalent_ensemble(rho, 6, seed=31)
    plan, _, report = prepare_ensemble(spec, target, dim_k=9)
    grid = purify(spec, plan.dim_k).as_grid()[:, : spec.rank]
    rebuilt = np.zeros(grid.size, dtype=complex)
    for j in range(target.size):
        rebuilt += np.sqrt(target.weights[j]) * np.kron(target.states[j], plan.isometry[:, j].conj())
    expected = numerics.max_abs(grid.reshape(-1) - rebuilt)
    assert abs(report.reconstruction_residual - expected) <= 1e-14


def test_isometry_residual_is_the_validated_value():
    rng = np.random.default_rng(32)
    rho = random_density_matrix(4, 2, rng)
    plan = steering_isometry(spectral_ensemble(rho), random_equivalent_ensemble(rho, 3, seed=32))
    gram = plan.isometry @ numerics.dag(plan.isometry)
    assert plan.isometry_residual == numerics.max_abs(gram - np.eye(gram.shape[0]))


def test_measure_accepts_probability_just_above_one():
    # the basis passes the orthonormality check, so its outcome is a record
    outcomes = measure_reference(BipartiteState(1, 2, [1, 0]), [[1 + 4e-11, 0], [0, 1]])
    assert [o.index for o in outcomes] == [0]
    assert outcomes[0].probability == pytest.approx(1.0, abs=1e-10)


def test_prepare_ensemble_builds_no_density_matrix_and_no_eigendecomposition(monkeypatch):
    rho = random_density_matrix(6, 4, np.random.default_rng(6))
    spec = spectral_ensemble(rho)
    target = random_equivalent_ensemble(rho, 7, seed=6)
    calls = Counter()

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    monkeypatch.setattr(
        DensityMatrix, "__post_init__", counted("DensityMatrix", DensityMatrix.__post_init__)
    )
    monkeypatch.setattr(np.linalg, "eigh", counted("eigh", np.linalg.eigh))
    monkeypatch.setattr(np.linalg, "eigvalsh", counted("eigvalsh", np.linalg.eigvalsh))
    _, _, report = prepare_ensemble(spec, target)
    assert report.passed()
    assert calls == Counter()


def counted_completion(monkeypatch, skew=0.0):
    """Count calls to ``gram_schmidt_complete``; ``skew`` scales its last row by 1 + skew."""
    calls = Counter()
    original = numerics.gram_schmidt_complete

    def completion(block):
        calls["complete"] += 1
        completed = original(block)
        completed[-1] *= 1.0 + skew
        return completed

    monkeypatch.setattr(numerics, "gram_schmidt_complete", completion)
    return calls


def test_only_reading_the_unitary_completes_it_and_only_once(monkeypatch, tmp_path):
    rho = random_density_matrix(4, 2, np.random.default_rng(8))
    spec = spectral_ensemble(rho)
    target = random_equivalent_ensemble(rho, 5, seed=8)
    calls = counted_completion(monkeypatch)
    plan, _, report = prepare_ensemble(spec, target, dim_k=7)
    assert report.passed()
    assert calls["complete"] == 0
    unitary = plan.unitary
    assert calls["complete"] == 1
    assert plan.unitary is unitary and plan.basis.shape == (7, 7)
    assert calls["complete"] == 1
    path = tmp_path / "plan.plan"
    fileio.write_plan(path, plan)
    loaded = fileio.read_plan(path)
    assert calls["complete"] == 1
    for name in ("coeffs", "isometry", "unitary", "basis"):
        np.testing.assert_array_equal(getattr(loaded, name), getattr(plan, name))


def test_a_completion_that_is_not_unitary_fails_where_the_unitary_is_read(monkeypatch, tmp_path):
    spec = balanced_spectral()
    target = random_equivalent_ensemble(density_matrix(spec), 3, seed=5)
    counted_completion(monkeypatch, skew=1e-6)  # row 2 of 3 is a completed row
    plan, _, report = prepare_ensemble(spec, target)
    assert report.passed()
    with pytest.raises(ContractViolation, match="unitarity"):
        plan.unitary
    source, drawn, out = tmp_path / "spec.ens", tmp_path / "target.ens", tmp_path / "plan.plan"
    fileio.write_ensemble(source, spec)
    fileio.write_ensemble(drawn, target)
    assert cli.main(["steer", str(source), str(drawn)]) == 0
    assert cli.main(["steer", str(source), str(drawn), "--out", str(out)]) == 2
