"""Round-trip and parse-failure tests for the structured text files."""

import numpy as np
import pytest

from purifykit import fileio, numerics
from purifykit.ensembles import (
    Ensemble,
    density_matrix,
    random_density_matrix,
    random_ensemble,
    random_equivalent_ensemble,
    spectral_ensemble,
)
from purifykit.errors import ContractViolation, InvalidEnsemble, NotNormalized, ParseError
from purifykit.purification import purify, steering_isometry


def awkward_ensemble():
    # weights and amplitudes that do not have short decimal expansions
    weights = np.array([1 / 3, 1 / 7, 1 - 1 / 3 - 1 / 7])
    states = np.array(
        [
            [np.sqrt(1 / 3), np.sqrt(2 / 3) * np.exp(0.31j)],
            [np.exp(-2.7j) / np.sqrt(2), 1j / np.sqrt(2)],
            [0.6, 0.8j],
        ]
    )
    return Ensemble(2, weights, states)


def test_ensemble_round_trip_is_exact(tmp_path):
    path = tmp_path / "mix.ens"
    original = awkward_ensemble()
    fileio.write_ensemble(path, original)
    loaded = fileio.read_ensemble(path)
    np.testing.assert_array_equal(loaded.weights, original.weights)
    np.testing.assert_array_equal(loaded.states, original.states)


def test_rewriting_an_ensemble_is_byte_identical(tmp_path):
    first = tmp_path / "a.ens"
    second = tmp_path / "b.ens"
    original = awkward_ensemble()
    fileio.write_ensemble(first, original)
    fileio.write_ensemble(second, fileio.read_ensemble(first))
    assert first.read_bytes() == second.read_bytes()


def test_density_matrix_round_trip(tmp_path):
    path = tmp_path / "rho.dm"
    rho = random_density_matrix(3, 2, np.random.default_rng(4))
    fileio.write_density_matrix(path, rho)
    loaded = fileio.read_density_matrix(path)
    np.testing.assert_array_equal(loaded.matrix, rho.matrix)
    assert loaded.dim == 3


def test_bipartite_state_round_trip(tmp_path):
    path = tmp_path / "psi.state"
    spec = spectral_ensemble(random_density_matrix(3, 3, np.random.default_rng(6)))
    psi = purify(spec, 4)
    fileio.write_bipartite_state(path, psi)
    loaded = fileio.read_bipartite_state(path)
    assert (loaded.dim_s, loaded.dim_k) == (3, 4)
    np.testing.assert_array_equal(loaded.amplitudes, psi.amplitudes)


def test_plan_round_trip(tmp_path):
    path = tmp_path / "plan.plan"
    rng = np.random.default_rng(12)
    rho = random_density_matrix(3, 2, rng)
    spec = spectral_ensemble(rho)
    target = random_equivalent_ensemble(rho, 4, seed=2)
    plan = steering_isometry(spec, target)
    fileio.write_plan(path, plan)
    loaded = fileio.read_plan(path)
    np.testing.assert_array_equal(loaded.isometry, plan.isometry)
    np.testing.assert_array_equal(loaded.unitary, plan.unitary)
    np.testing.assert_array_equal(loaded.basis, plan.basis)
    np.testing.assert_array_equal(loaded.coeffs, plan.coeffs)


@pytest.mark.parametrize("edit", ["permuted", "truncated"])
def test_read_plan_requires_basis_to_be_the_unitary_adjoint(tmp_path, edit):
    # both edits leave the basis rows orthonormal
    rho = random_density_matrix(3, 2, np.random.default_rng(12))
    plan = steering_isometry(spectral_ensemble(rho), random_equivalent_ensemble(rho, 4, seed=2))
    plan.basis = plan.basis[::-1] if edit == "permuted" else plan.basis[:-1]
    path = tmp_path / "plan.plan"
    fileio.write_plan(path, plan)
    with pytest.raises(ContractViolation):
        fileio.read_plan(path)


def test_read_bipartite_state_rejects_norm_off_one(tmp_path):
    path = tmp_path / "psi.state"
    path.write_text('{"dim_s": 1, "dim_k": 2, "amplitudes": [[1.001, 0], [0, 0]]}')
    with pytest.raises(NotNormalized):
        fileio.read_bipartite_state(path)


def test_documents_are_valid_json_with_17_digit_numbers(tmp_path):
    import json

    path = tmp_path / "mix.ens"
    fileio.write_ensemble(path, awkward_ensemble())
    doc = json.loads(path.read_text())
    assert set(doc) == {"dim", "weights", "states"}
    assert "0.33333333333333331" in path.read_text()


def test_read_rejects_junk(tmp_path):
    path = tmp_path / "broken.ens"
    path.write_text("this is not a document")
    with pytest.raises(ParseError):
        fileio.read_ensemble(path)


def test_read_rejects_missing_fields(tmp_path):
    path = tmp_path / "short.ens"
    path.write_text('{"dim": 2, "weights": [1.0]}')
    with pytest.raises(ParseError):
        fileio.read_ensemble(path)


def test_read_rejects_malformed_pairs(tmp_path):
    path = tmp_path / "pairs.ens"
    path.write_text('{"dim": 2, "weights": [1.0], "states": [[["x", 0], [0, 0]]]}')
    with pytest.raises(ParseError):
        fileio.read_ensemble(path)


def test_read_applies_domain_invariants(tmp_path):
    path = tmp_path / "bad.ens"
    path.write_text(
        '{"dim": 2, "weights": [0.9], "states": [[[1.0, 0.0], [0.0, 0.0]]]}'
    )
    with pytest.raises(InvalidEnsemble):
        fileio.read_ensemble(path)


def test_density_entry_count_must_match(tmp_path):
    path = tmp_path / "bad.dm"
    path.write_text('{"dim": 2, "entries": [[1.0, 0.0]]}')
    with pytest.raises(ParseError):
        fileio.read_density_matrix(path)


def test_round_trip_preserves_physics(tmp_path):
    rng = np.random.default_rng(9)
    ens = random_ensemble(4, 5, rng)
    path = tmp_path / "mix.ens"
    fileio.write_ensemble(path, ens)
    loaded = fileio.read_ensemble(path)
    assert (
        numerics.max_abs(density_matrix(loaded).matrix - density_matrix(ens).matrix)
        == 0.0
    )


def test_read_rejects_states_that_are_not_a_list(tmp_path):
    path = tmp_path / "scalar.ens"
    path.write_text('{"dim": 2, "weights": [1.0], "states": 5}')
    with pytest.raises(ParseError):
        fileio.read_ensemble(path)


def test_read_rejects_ragged_states(tmp_path):
    path = tmp_path / "ragged.ens"
    path.write_text(
        '{"dim": 2, "weights": [0.5, 0.5], "states": [[[1.0, 0.0], [0.0, 0.0]], [[1.0, 0.0]]]}'
    )
    with pytest.raises(ParseError):
        fileio.read_ensemble(path)


def test_read_rejects_text_that_is_not_utf8(tmp_path):
    path = tmp_path / "latin1.ens"
    path.write_bytes('{"dim": 2, "weights": [1.0], "états": []}'.encode("latin-1"))
    with pytest.raises(ParseError):
        fileio.read_ensemble(path)


@pytest.mark.parametrize(
    "reader, text",
    [
        (fileio.read_ensemble, '{"dim": 2.7, "weights": [1.0], "states": [[[1, 0], [0, 0]]]}'),
        (fileio.read_density_matrix, '{"dim": 1.5, "entries": [[1, 0]]}'),
        (fileio.read_bipartite_state, '{"dim_s": 1.5, "dim_k": 1, "amplitudes": [[1, 0]]}'),
        (fileio.read_bipartite_state, '{"dim_s": 1, "dim_k": 1.5, "amplitudes": [[1, 0]]}'),
        (fileio.read_ensemble, '{"dim": true, "weights": [1.0], "states": [[[1, 0]]]}'),
    ],
)
def test_read_rejects_non_integer_dimensions(tmp_path, reader, text):
    path = tmp_path / "fractional.doc"
    path.write_text(text)
    with pytest.raises(ParseError):
        reader(path)
