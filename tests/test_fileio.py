"""Round-trip and parse-failure tests for the structured text files."""

import ast
import json
import os
import pathlib
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import parse_numbers_oracle
import render_oracle
from purifykit import fileio, numerics
from purifykit.ensembles import (
    DensityMatrix,
    Ensemble,
    SpectralEnsemble,
    density_matrix,
    random_density_matrix,
    random_ensemble,
    random_equivalent_ensemble,
    spectral_ensemble,
)
from purifykit.errors import (
    ContractViolation,
    DimensionMismatch,
    InvalidEnsemble,
    NotFinite,
    NotNormalized,
    NotSquare,
    ParseError,
    PurifyKitError,
)
from purifykit.purification import BipartiteState, SteeringPlan, purify, steering_isometry


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
    awkward = awkward_ensemble()
    # a SpectralEnsemble is an Ensemble, so the writer takes it as it is
    for original in (awkward, spectral_ensemble(density_matrix(awkward))):
        fileio.write_ensemble(path, original)
        loaded = fileio.read_ensemble(path)
        np.testing.assert_array_equal(loaded.weights, original.weights)
        np.testing.assert_array_equal(loaded.states, original.states)


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
    np.testing.assert_array_equal(loaded.coeffs, plan.coeffs)


# the exact bytes of write_plan(hadamard_plan()), one line
GOLDEN_HADAMARD_PLAN = (
    '{"coeffs":[[[0.7071067811865475,0.0],[0.7071067811865475,0.0]],'
    '[[0.7071067811865475,0.0],[-0.7071067811865475,0.0]]],'
    '"isometry":[[[0.7071067811865475,0.0],[0.7071067811865475,0.0]],'
    '[[0.7071067811865475,0.0],[-0.7071067811865475,0.0]]],'
    '"unitary":[[[0.7071067811865475,0.0],[0.7071067811865475,0.0]],'
    '[[0.7071067811865475,0.0],[-0.7071067811865475,0.0]]]}\n'
)
# the same plan as the "%.17g" writer of earlier versions wrote it
OLDER_HADAMARD_PLAN = """{
  "coeffs": [[[0.70710678118654746, 0], [0.70710678118654746, 0]], \
[[0.70710678118654746, 0], [-0.70710678118654746, 0]]],
  "isometry": [[[0.70710678118654746, 0], [0.70710678118654746, 0]], \
[[0.70710678118654746, 0], [-0.70710678118654746, 0]]],
  "unitary": [[[0.70710678118654746, 0], [0.70710678118654746, 0]], \
[[0.70710678118654746, 0], [-0.70710678118654746, 0]]]
}
"""
# an ensemble as the "%.17g" writer of earlier versions wrote it, with
# negative zero as a standalone -0, which JSON reads as the integer 0
OLDER_SIGNED_ZERO_ENSEMBLE = """{
  "dim": 2,
  "weights": [0.33333333333333331, 0.66666666666666674],
  "states": [[[0.57735026918962573, -0], [-0.81649658092772603, 0]], [[-0, 1], [0, -0]]]
}
"""


def hadamard_plan():
    # (1/2, |0>; 1/2, |1>) into (1/2, |+>; 1/2, |->) with dim_k = 2: the
    # isometry fills the unitary, so no completion digits enter a plan file
    spec = SpectralEnsemble(2, [0.5, 0.5], [[1, 0], [0, 1]])
    plus, minus = np.array([1, 1]) / np.sqrt(2), np.array([1, -1]) / np.sqrt(2)
    return steering_isometry(spec, Ensemble(2, [0.5, 0.5], [plus, minus]), dim_k=2)


def test_plan_file_with_nothing_to_complete_is_golden(tmp_path):
    path = tmp_path / "hadamard.plan"
    fileio.write_plan(path, hadamard_plan())
    assert path.read_text(encoding="utf-8") == GOLDEN_HADAMARD_PLAN


def test_read_bipartite_state_rejects_norm_off_one(tmp_path):
    path = tmp_path / "psi.state"
    path.write_text('{"dim_s": 1, "dim_k": 2, "amplitudes": [[1.001, 0], [0, 0]]}')
    with pytest.raises(NotNormalized):
        fileio.read_bipartite_state(path)


def bits(values) -> np.ndarray:
    """The float64 bit patterns of an array, complex entries as [re, im]."""
    values = np.asarray(values)
    if values.dtype.kind == "c":
        values = np.stack((values.real, values.imag), axis=-1)
    return np.ascontiguousarray(values, dtype=float).view(np.uint64)


OLDER_FILES = {
    "plan": (OLDER_HADAMARD_PLAN, fileio.read_plan, fileio.write_plan, {}),
    "ensemble": (
        OLDER_SIGNED_ZERO_ENSEMBLE, fileio.read_ensemble, fileio.write_ensemble, {"dim": 2}
    ),
}


# a standalone -0 of the "%.17g" writer, not the minus of a number or exponent
STANDALONE_MINUS_ZERO = re.compile(r"-0(?=[,\]])")


@pytest.mark.parametrize("kind", OLDER_FILES)
def test_files_of_earlier_versions_read_as_the_new_files_of_the_same_data(tmp_path, kind):
    older, read, write, dims = OLDER_FILES[kind]
    old_path, new_path = tmp_path / "older", tmp_path / "newer"
    old_path.write_text(older)
    from_old = read(old_path)
    fields = [name for name in json.loads(older) if name not in dims]
    # the fixture is what the earlier writer made of the data it holds, but
    # for the sign of zero: a standalone -0 is JSON's integer 0, so +0.0
    rendered = render_oracle.document({**dims, **{f: getattr(from_old, f) for f in fields}})
    assert rendered == STANDALONE_MINUS_ZERO.sub("0", older)
    write(new_path, from_old)
    assert new_path.read_text() != older
    from_new = read(new_path)
    for name in fields:
        np.testing.assert_array_equal(bits(getattr(from_old, name)), bits(getattr(from_new, name)))


def test_a_standalone_minus_zero_of_an_older_file_reads_as_positive_zero(tmp_path):
    older, newer = tmp_path / "older.ens", tmp_path / "newer.ens"
    older.write_text(OLDER_SIGNED_ZERO_ENSEMBLE)
    # the same data with each -0 spelled -0.0, as the current writer spells it
    newer.write_text(STANDALONE_MINUS_ZERO.sub("-0.0", OLDER_SIGNED_ZERO_ENSEMBLE))
    old_parts, new_parts = (
        np.stack((states.real, states.imag), axis=-1)
        for states in (fileio.read_ensemble(older).states, fileio.read_ensemble(newer).states)
    )
    np.testing.assert_array_equal(bits(np.abs(old_parts)), bits(np.abs(new_parts)))
    assert np.signbit(new_parts).tolist() == [
        [[False, True], [True, False]],
        [[True, False], [False, True]],
    ]
    # only the minus of -0.81649658092772603 is left
    assert np.signbit(old_parts).tolist() == [
        [[False, False], [True, False]],
        [[False, False], [False, False]],
    ]


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_a_non_finite_entry_is_refused_before_the_file_is_opened(tmp_path, bad):
    existing, fresh = tmp_path / "existing.ens", tmp_path / "fresh.ens"
    fileio.write_ensemble(existing, awkward_ensemble())
    before = existing.read_bytes()
    ensemble = awkward_ensemble()
    ensemble.weights[0] = bad  # the arrays stay writable after validation
    for path in (existing, fresh):
        with pytest.raises(NotFinite, match="finite"):
            fileio.write_ensemble(path, ensemble)
    assert existing.read_bytes() == before
    assert not fresh.exists()
    plan = hadamard_plan()
    plan.unitary[1, 0] = complex(0.5, bad)
    with pytest.raises(NotFinite):
        fileio.write_plan(existing, plan)
    assert existing.read_bytes() == before


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


def write_real_matrices(path, matrices):
    """A plan document of real matrices, entries as [x, 0] pairs."""
    fields = {name: [[[float(x), 0.0] for x in row] for row in m] for name, m in matrices.items()}
    path.write_text(json.dumps(fields))


def test_read_plan_rejects_a_non_square_unitary(tmp_path):
    # orthonormal rows, but 2x3 completes nothing
    plan = {"coeffs": np.eye(2), "isometry": np.eye(2), "unitary": np.eye(3)[:2]}
    path = tmp_path / "wide.plan"
    write_real_matrices(path, plan)
    with pytest.raises(NotSquare):
        fileio.read_plan(path)
    with pytest.raises(NotSquare):
        SteeringPlan(plan["coeffs"], plan["isometry"], dim_k=2).set_unitary(plan["unitary"])


def test_read_plan_rejects_a_unitary_that_does_not_embed_the_isometry(tmp_path):
    # the identity is unitary, but its leading rows are not the isometry,
    # so it would measure another ensemble
    rho = random_density_matrix(3, 2, np.random.default_rng(12))
    plan = steering_isometry(spectral_ensemble(rho), random_equivalent_ensemble(rho, 4, seed=2))
    path = tmp_path / "plan.plan"
    fileio.write_plan(path, plan)
    doc = json.loads(path.read_text())
    identity = [[[float(i == j), 0.0] for j in range(4)] for i in range(4)]
    doc["unitary"] = identity
    path.write_text(json.dumps(doc))
    with pytest.raises(ContractViolation, match="isometry"):
        fileio.read_plan(path)


def test_steering_plan_rejects_an_isometry_wider_than_the_unitary(tmp_path):
    isometry = np.array([[1, 0, 0], [0, 1, 0]])
    plan = {"coeffs": isometry.T, "isometry": isometry, "unitary": np.eye(2)}
    path = tmp_path / "narrow.plan"
    write_real_matrices(path, plan)
    with pytest.raises(DimensionMismatch):
        fileio.read_plan(path)
    with pytest.raises(DimensionMismatch):
        SteeringPlan(isometry.T, isometry, dim_k=2)


@pytest.mark.parametrize("coeffs", [np.eye(3), np.eye(2, 3), np.eye(2)[:1]])
def test_steering_plan_refuses_coeffs_not_shaped_as_the_isometry_transposed(tmp_path, coeffs):
    isometry = np.array([[1, 0, 0], [0, 1, 0]])
    with pytest.raises(DimensionMismatch, match="transposed"):
        SteeringPlan(coeffs, isometry)
    path = tmp_path / "mismatched.plan"
    write_real_matrices(path, {"coeffs": coeffs, "isometry": isometry, "unitary": np.eye(3)})
    with pytest.raises(DimensionMismatch, match="transposed"):
        fileio.read_plan(path)


@pytest.mark.parametrize(
    "reader, text",
    [
        (fileio.read_density_matrix, '{"dim": -2, "entries": [[0.5, 0], [0, 0], [0, 0], [1, 0]]}'),
        (fileio.read_ensemble, '{"dim": 0, "weights": [1.0], "states": [[]]}'),
        (fileio.read_bipartite_state, '{"dim_s": -1, "dim_k": -1, "amplitudes": [[1, 0]]}'),
    ],
)
def test_read_rejects_dimensions_below_one(tmp_path, reader, text):
    path = tmp_path / "negative.doc"
    path.write_text(text)
    with pytest.raises(ParseError, match="must be a positive integer"):
        reader(path)


@pytest.mark.parametrize(
    "reader, text",
    [
        # two-character strings used to unpack as [re, im] pairs
        (fileio.read_density_matrix, '{"dim": 2, "entries": ["50", "00", "00", "50"]}'),
        (fileio.read_ensemble, '{"dim": 1, "weights": [1.0], "states": [["10"]]}'),
        (fileio.read_ensemble, '{"dim": 1, "weights": [1.0], "states": [[["1", "0"]]]}'),
        (fileio.read_ensemble, '{"dim": 1, "weights": ["1.0"], "states": [[[1, 0]]]}'),
        (fileio.read_ensemble, '{"dim": 1, "weights": [true], "states": [[[1, 0]]]}'),
        (fileio.read_ensemble, '{"dim": 1, "weights": [1.0], "states": [[[true, 0]]]}'),
        # the only entry that reads as 0 or 1 is the boolean
        (fileio.read_ensemble, '{"dim": 1, "weights": [1.0], "states": [[[true, 0.5]]]}'),
        (fileio.read_bipartite_state, '{"dim_s": 1, "dim_k": 1, "amplitudes": [[1, false]]}'),
        (fileio.read_bipartite_state, '{"dim_s": 1, "dim_k": 1, "amplitudes": [[1, 0, 0]]}'),
        (fileio.read_bipartite_state, '{"dim_s": 1, "dim_k": 1, "amplitudes": [[1, null]]}'),
        (fileio.read_density_matrix, '{"dim": 1, "entries": [[1' + "0" * 400 + ", 0]]}"),
    ],
)
def test_read_accepts_only_json_numbers(tmp_path, reader, text):
    path = tmp_path / "strings.doc"
    path.write_text(text)
    with pytest.raises(ParseError):
        reader(path)


def test_integer_zeros_and_ones_read_as_numbers(tmp_path):
    # every entry reads as exactly 0 or 1, so the leaves are walked and none is a boolean
    path = tmp_path / "integers.ens"
    path.write_text('{"dim": 2, "weights": [1], "states": [[[0, 0], [1, 0]]]}')
    ensemble = fileio.read_ensemble(path)
    np.testing.assert_array_equal(ensemble.weights, [1.0])
    np.testing.assert_array_equal(ensemble.states, [[0, 1]])
    path = tmp_path / "integers.dm"
    path.write_text('{"dim": 2, "entries": [[1, 0], [0, 0], [0, 0], [0, 0]]}')
    np.testing.assert_array_equal(fileio.read_density_matrix(path).matrix, [[1, 0], [0, 0]])


@pytest.mark.parametrize(
    "text",
    [
        '{"dim": 1, "weights": [1.0], "states": ' + "[" * 100000 + "]" * 100000 + "}",
        '{"dim": 1' + "0" * 5000 + ', "weights": [1.0], "states": [[[1, 0]]]}',
    ],
    ids=["nested-too-deep", "integer-too-long"],
)
def test_read_rejects_documents_the_json_parser_cannot_hold(tmp_path, text):
    path = tmp_path / "huge.ens"
    path.write_text(text)
    with pytest.raises(ParseError, match="not a valid document"):
        fileio.read_ensemble(path)


def test_parsed_entries_keep_the_sign_of_zero(tmp_path):
    path = tmp_path / "signed.state"
    path.write_text('{"dim_s": 1, "dim_k": 2, "amplitudes": [[-0.0, 1], [0.6, -0.0]]}')
    with pytest.raises(NotNormalized):
        fileio.read_bipartite_state(path)
    path.write_text('{"dim_s": 1, "dim_k": 2, "amplitudes": [[-0.0, 0.8], [0.6, -0.0]]}')
    amplitudes = fileio.read_bipartite_state(path).amplitudes
    assert [np.signbit(amplitudes.real[0]), np.signbit(amplitudes.imag[1])] == [True, True]


# ---------------------------------------------------------------------------
# a written array is the nested lists of its values, each number in the
# shortest digits that read back

# signed zero, the smallest subnormal, the largest decade, the first integer
# past 16 digits, a value with no short binary form, integers stored as floats
EDGE_FLOATS = [-0.0, 0.0, 5e-324, -5e-324, 1e308, -1e308, 1e16, 0.1, 1.0, -3.0, 2.0**53]
entries = st.one_of(
    st.sampled_from(EDGE_FLOATS), st.floats(allow_nan=False, allow_infinity=False)
)


@given(data=st.data())
@settings(max_examples=300, deadline=None)
def test_a_written_array_is_its_nested_lists_in_the_shortest_digits(tmp_path_factory, data):
    shape = data.draw(hnp.array_shapes(min_dims=1, max_dims=3, min_side=0, max_side=4))
    values = data.draw(hnp.arrays(float, shape, elements=entries), label="real parts")
    if data.draw(st.booleans(), label="complex"):
        imag = data.draw(hnp.arrays(float, shape, elements=entries), label="imaginary parts")
        values = values.astype(complex)
        values.imag = imag  # assigned, not added, so -0.0 parts survive
    if data.draw(st.booleans(), label="transposed"):
        values = values.T  # a strided view, not C-contiguous
    path = tmp_path_factory.mktemp("nested") / "values.doc"
    fileio._write_document(path, {"values": values})
    written = path.read_text(encoding="ascii")
    assert json.loads(written) == {"values": render_oracle.nested(values)}
    tokens = render_oracle.NUMBER.findall(written)
    expected = bits(values).ravel()
    read = np.array([float(token) for token in tokens], dtype=float)
    np.testing.assert_array_equal(read.view(np.uint64), expected)
    # the shortest digits that read back, as repr gives them
    for token, value in zip(tokens, expected.view(float)):
        assert render_oracle.significant_digits(token) <= render_oracle.significant_digits(
            repr(float(value))
        ), (token, value)


@given(data=st.data())
@settings(max_examples=200, deadline=None)
def test_a_written_document_never_holds_null(tmp_path_factory, data):
    shape = data.draw(hnp.array_shapes(min_dims=1, max_dims=3, min_side=1, max_side=4))
    values = data.draw(hnp.arrays(data.draw(st.sampled_from([float, complex])), shape))
    path = tmp_path_factory.mktemp("finite") / "values.doc"
    path.write_bytes(b"the old contents")
    try:
        fileio._write_document(path, {"values": values})
    except NotFinite:
        assert not np.isfinite(values).all()
        assert path.read_bytes() == b"the old contents"
    else:
        assert np.isfinite(values).all()
        assert b"null" not in path.read_bytes()


def old_reader_values(text: str) -> np.ndarray:
    """The document's one field as the json module with the -0 hook read it."""
    (value,) = json.loads(text, parse_int=lambda t: -0.0 if t == "-0" else int(t)).values()
    return np.array(value, dtype=float)


@given(data=st.data())
@settings(max_examples=300, deadline=None)
def test_a_rendered_array_reads_back_bit_for_bit(tmp_path_factory, data):
    shape = data.draw(hnp.array_shapes(min_dims=1, max_dims=3, min_side=1, max_side=4))
    values = data.draw(hnp.arrays(float, shape, elements=entries), label="real parts")
    if data.draw(st.booleans(), label="complex"):
        imag = data.draw(hnp.arrays(float, shape, elements=entries), label="imaginary parts")
        values = values.astype(complex)
        values.imag = imag
    path = tmp_path_factory.mktemp("round") / "values.doc"
    fileio._write_document(path, {"values": values})
    read = np.array(fileio._Document(path, ("values",)).fields["values"], dtype=float)
    expected = np.stack((values.real, values.imag), axis=-1) if values.dtype.kind == "c" else values
    # bit patterns, so -0.0 and 0.0 differ
    np.testing.assert_array_equal(read.view(np.uint64), expected.view(np.uint64))
    reference = old_reader_values(path.read_text())
    np.testing.assert_array_equal(read.view(np.uint64), reference.view(np.uint64))


@pytest.mark.parametrize("literal", ["NaN", "Infinity", "-Infinity"])
def test_non_finite_literals_are_not_json(tmp_path, literal):
    path = tmp_path / "literal.ens"
    path.write_text('{"dim": 1, "weights": [%s], "states": [[[1, 0]]]}' % literal)
    with pytest.raises(ParseError, match="not a valid document"):
        fileio.read_ensemble(path)


def test_an_exponent_of_minus_zero_is_read_as_written(tmp_path):
    path = tmp_path / "exponent.ens"
    path.write_text('{"dim": 1, "weights": [1e-0], "states": [[[1E-0, -0]]]}')
    ensemble = fileio.read_ensemble(path)
    assert ensemble.weights.tolist() == [1.0]
    assert ensemble.states.real.tolist() == [[1.0]]


@pytest.mark.parametrize("inside", ["states", "key", "objects"])
def test_a_document_nested_past_the_limit_is_refused_before_parsing(tmp_path, inside):
    # brackets inside a string count toward the depth as well
    deepest = fileio.MAX_DEPTH - 1  # the top-level object is one level
    templates = {
        "states": '{"dim": 1, "weights": [1.0], "states": %s}',
        "key": '{"%s": 0, "dim": 1, "weights": [1.0], "states": [[[1, 0]]]}',
        "objects": '{"extra": %s, "dim": 1, "weights": [1.0], "states": [[[1, 0]]]}',
    }
    opening, core, closing = ('{"a": ', "0", "}") if inside == "objects" else ("[", "", "]")
    path = tmp_path / "deep.ens"
    path.write_text(templates[inside] % (opening * deepest + core + closing * deepest))
    if inside == "states":
        with pytest.raises(ParseError, match="states must be"):
            fileio.read_ensemble(path)
    else:
        fileio.read_ensemble(path)
    too_deep = opening * (deepest + 1) + core + closing * (deepest + 1)
    path.write_text(templates[inside] % too_deep)
    with pytest.raises(ParseError) as refused:
        fileio.read_ensemble(path)
    assert str(refused.value) == (
        f"{path}: not a valid document (nested deeper than {fileio.MAX_DEPTH} levels)"
    )


def plan_with_completed_unitary():
    rho = random_density_matrix(3, 2, np.random.default_rng(12))
    return steering_isometry(spectral_ensemble(rho), random_equivalent_ensemble(rho, 4, seed=2))


@pytest.mark.parametrize("basis", ["adjoint", "permuted", "nan"])
def test_read_plan_ignores_the_basis_field_of_older_files(tmp_path, basis):
    # older writers also stored basis, the adjoint of unitary; a reader skips
    # it like any unknown field, whatever numbers it holds. NaN is not a JSON
    # number, so a file that holds it is not a valid document
    plan = plan_with_completed_unitary()
    path = tmp_path / "plan.plan"
    fileio.write_plan(path, plan)
    doc = json.loads(path.read_text())
    without = fileio.read_plan(path)
    adjoint = plan.unitary.conj().T
    rows = {"adjoint": adjoint, "permuted": adjoint[::-1], "nan": adjoint * np.nan}
    doc["basis"] = [[[z.real, z.imag] for z in row] for row in rows[basis].tolist()]
    path.write_text(json.dumps(doc))
    if basis == "nan":
        with pytest.raises(ParseError, match="not a valid document"):
            fileio.read_plan(path)
        return
    loaded = fileio.read_plan(path)
    for name in ("coeffs", "isometry", "unitary"):
        np.testing.assert_array_equal(getattr(loaded, name), getattr(without, name))


def test_read_plan_keeps_the_unitary_of_the_file(tmp_path, monkeypatch):
    # the rows past the rank, swapped, still give a unitary holding the
    # isometry, but not the one the completion would give
    plan = plan_with_completed_unitary()
    rank = len(plan.isometry)
    assert plan.dim_k - rank >= 2
    order = [*range(rank), *reversed(range(rank, plan.dim_k))]
    path = tmp_path / "plan.plan"
    fileio.write_plan(path, plan)
    doc = json.loads(path.read_text())
    doc["unitary"] = [doc["unitary"][i] for i in order]
    path.write_text(json.dumps(doc))
    completions = []
    monkeypatch.setattr(numerics, "gram_schmidt_complete", completions.append)
    loaded = fileio.read_plan(path)
    np.testing.assert_array_equal(loaded.unitary, plan.unitary[order])
    assert not np.array_equal(loaded.unitary, plan.unitary)
    assert completions == []


DOCUMENTS = {
    "ensemble": (fileio.write_ensemble, fileio.read_ensemble, awkward_ensemble),
    "density_matrix": (
        fileio.write_density_matrix,
        fileio.read_density_matrix,
        # -0.0 is written as -0.0, so it reads back with its sign
        lambda: DensityMatrix(2, [[0.7, -0.0], [0.0, 0.3]]),
    ),
    "state": (
        fileio.write_bipartite_state,
        fileio.read_bipartite_state,
        lambda: BipartiteState(2, 3, np.exp(1j * np.arange(6)) / np.sqrt(6)),
    ),
    "plan": (fileio.write_plan, fileio.read_plan, plan_with_completed_unitary),
}


FIELD_ORDER = {
    "ensemble": ["dim", "weights", "states"],
    "density_matrix": ["dim", "entries"],
    "state": ["dim_s", "dim_k", "amplitudes"],
    "plan": ["coeffs", "isometry", "unitary"],
}


@pytest.mark.parametrize("kind", DOCUMENTS)
def test_documents_are_valid_json_with_shortest_round_trip_numbers(tmp_path, kind):
    write, _, make = DOCUMENTS[kind]
    value, path = make(), tmp_path / kind
    write(path, value)
    text = path.read_text()
    # one line, the fields in a fixed order
    assert text.count("\n") == 1 and text.endswith("}\n")
    doc = json.loads(text)
    assert list(doc) == FIELD_ORDER[kind]
    for name, field in doc.items():
        written = value.matrix.ravel() if name == "entries" else getattr(value, name)
        if isinstance(written, int):
            assert type(field) is int and field == written
        else:
            # bit patterns, so -0.0 and 0.0 differ
            read = np.array(field, dtype=float)
            np.testing.assert_array_equal(read.view(np.uint64), bits(written))
    if kind == "ensemble":
        # 1/3 in the 16 digits that read back to it, not the 17 of "%.17g"
        assert render_oracle.NUMBER.findall(text)[1] == "0.3333333333333333"


@pytest.mark.parametrize("kind", DOCUMENTS)
def test_rewriting_a_document_is_byte_identical(tmp_path, kind):
    write, read, make = DOCUMENTS[kind]
    first, second = tmp_path / "first", tmp_path / "second"
    write(first, make())
    write(second, read(first))
    assert first.read_bytes() == second.read_bytes()



# ---------------------------------------------------------------------------
# the in-place writer


@pytest.mark.parametrize("kind", DOCUMENTS)
def test_a_shorter_document_over_a_longer_file_leaves_exactly_the_new_bytes(tmp_path, kind):
    write, _, make = DOCUMENTS[kind]
    fresh, reused = tmp_path / "fresh", tmp_path / "reused"
    write(fresh, make())
    reused.write_bytes(b"x" * (3 * fresh.stat().st_size))
    write(reused, make())
    assert reused.read_bytes() == fresh.read_bytes()


def test_an_overwrite_keeps_the_inode_its_links_and_its_mode(tmp_path):
    path, link = tmp_path / "doc", tmp_path / "link"
    fileio.write_text(path, "a longer first version\n")
    os.chmod(path, 0o640)
    os.link(path, link)
    before = path.stat()
    fileio.write_text(path, "short\n")
    after = path.stat()
    assert (after.st_ino, after.st_nlink, after.st_mode) == (before.st_ino, 2, before.st_mode)
    assert link.read_bytes() == path.read_bytes() == b"short\n"


def test_an_overwrite_writes_through_a_symlink_and_keeps_it(tmp_path):
    target, link = tmp_path / "target", tmp_path / "link"
    target.write_text("the old, longer contents\n")
    link.symlink_to(target)
    fileio.write_text(link, "new\n")
    assert link.is_symlink() and os.readlink(link) == str(target)
    assert target.read_bytes() == b"new\n"


def test_write_text_creates_a_file_with_the_umask_mode(tmp_path):
    reference = tmp_path / "reference"
    with open(reference, "w"):
        pass
    fileio.write_text(tmp_path / "created", "\u03c6\n")
    assert (tmp_path / "created").stat().st_mode == reference.stat().st_mode
    assert (tmp_path / "created").read_bytes() == "\u03c6\n".encode("utf-8")


def _writes_files(call: ast.Call) -> bool:
    """``open(..., "w"|"a"|"x"|"+" ...)`` or any ``os.open``, which takes flags."""
    func = call.func
    if getattr(func, "id", getattr(func, "attr", None)) != "open":
        return False
    if isinstance(func, ast.Attribute) and getattr(func.value, "id", None) == "os":
        return True
    modes = [*call.args[1:2], *(k.value for k in call.keywords if k.arg == "mode")]
    return any(
        isinstance(m, ast.Constant) and isinstance(m.value, str) and set(m.value) & set("wax+")
        for m in modes
    )


def test_the_package_writes_files_only_through_write_text():
    package = pathlib.Path(fileio.__file__).parent
    writers = []
    for source in sorted(package.glob("*.py")):
        tree = ast.parse(source.read_text())
        scopes = {
            id(inner): f"{source.stem}.{node.name}"
            for node in ast.walk(tree)
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
            for inner in ast.walk(node)
        }
        for node in ast.walk(tree):
            truncates = isinstance(node, (ast.Name, ast.Attribute)) and "O_TRUNC" in (
                getattr(node, "id", None),
                getattr(node, "attr", None),
            )
            if truncates or (isinstance(node, ast.Call) and _writes_files(node)):
                writers.append((scopes.get(id(node), source.stem), node.lineno, truncates))
    assert {scope for scope, _, _ in writers} == {"fileio.write_text"}, writers
    assert not any(truncates for _, _, truncates in writers), writers


# ---------------------------------------------------------------------------
# reader fuzzing: a malformed document raises a library error, nothing else

junk = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.sampled_from([10**400, 2**63, 2**64, -(2**63) - 1]),
    st.floats(allow_nan=True, allow_infinity=True),
    st.text(max_size=3),
    st.sampled_from(["1", "0.5", "NaN", "10"]),
)
json_values = st.recursive(
    junk,
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=2), inner, max_size=2),
    max_leaves=12,
)
numbers = st.one_of(st.integers(-2, 2), st.floats(-2, 2), st.floats(), junk)
pairs = st.lists(st.lists(numbers, min_size=1, max_size=3), max_size=5)
FIELDS = {
    "dimension": st.one_of(st.integers(-3, 5), st.sampled_from([0, 10**12, 10**400]), json_values),
    "reals": st.one_of(st.lists(numbers, max_size=5), json_values),
    "pairs": st.one_of(pairs, json_values),
    "rows": st.one_of(st.lists(pairs, max_size=4), json_values),
}
READERS = {
    fileio.read_ensemble: {"dim": "dimension", "weights": "reals", "states": "rows"},
    fileio.read_density_matrix: {"dim": "dimension", "entries": "pairs"},
    fileio.read_bipartite_state: {
        "dim_s": "dimension",
        "dim_k": "dimension",
        "amplitudes": "pairs",
    },
    fileio.read_plan: {name: "rows" for name in ("coeffs", "isometry", "unitary")},
}


@given(data=st.data())
@settings(max_examples=300, deadline=None)
def test_readers_raise_only_library_errors_on_malformed_documents(tmp_path_factory, data):
    reader = data.draw(st.sampled_from(list(READERS)), label="reader")
    fields = READERS[reader]
    names = st.lists(st.sampled_from(sorted(fields)), unique=True, min_size=len(fields) - 1)
    kept = data.draw(names, label="fields kept")
    doc = {name: data.draw(FIELDS[fields[name]], label=name) for name in kept}
    if data.draw(st.booleans(), label="wrap the document"):
        doc = data.draw(st.sampled_from([[doc], "text", 3]), label="top level")
    path = tmp_path_factory.mktemp("fuzz") / "doc.json"
    path.write_text(json.dumps(doc))
    try:
        reader(path)
    except (PurifyKitError, OSError):
        pass


# ---------------------------------------------------------------------------
# the level-by-level array parser against the one-np.array parser it replaced

# what orjson hands a field: JSON scalars (no NaN or infinity), lists, objects
json_scalars = st.one_of(
    st.sampled_from([0, 1, -1, 0.0, -0.0, 1.0, True, False, None, "", "ab", 2**63, 2**64]),
    st.integers(-(2**70), 2**70),
    st.floats(allow_nan=False, allow_infinity=False),
    st.booleans(),
    st.none(),
    st.text(max_size=3),
)
nested_json = st.recursive(
    json_scalars,
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=2), inner, max_size=2),
    max_leaves=20,
)
leaf_kinds = {
    "ints": st.integers(-2, 2),
    "floats": st.one_of(st.sampled_from([0.0, -0.0, 1.0]), st.floats(-2, 2)),
    "mixed": json_scalars,
}


@st.composite
def near_rectangular(draw, ndim):
    """Nested lists 0 to 5 deep that are rectangular, or one edit away from it:
    a row made ragged, or an entry replaced by any JSON value. Most have the
    shape of a field ``ndim`` deep, with [re, im] pairs below one level."""
    if draw(st.booleans(), label="field shape"):
        shape = draw(st.lists(st.integers(1, 3), min_size=ndim - 1, max_size=ndim - 1))
        # mostly [re, im] pairs, now and then a pair level one short or one long
        shape += [draw(st.sampled_from([2, 2, 2, 1, 3]) if ndim > 1 else st.integers(0, 4))]
    else:
        shape = draw(st.lists(st.integers(0, 3), max_size=5))
    leaf = leaf_kinds[draw(st.sampled_from(sorted(leaf_kinds)), label="leaves")]

    def build(dims):
        return [build(dims[1:]) for _ in range(dims[0])] if dims else draw(leaf)

    value = build(shape)
    node = value
    while isinstance(node, list) and node and draw(st.booleans(), label="descend"):
        child = node[draw(st.integers(0, len(node) - 1), label="row")]
        if not isinstance(child, list):
            break
        node = child
    if isinstance(node, list) and draw(st.booleans(), label="edited"):
        edit = draw(st.sampled_from(["append", "pop", "replace"]), label="edit")
        if edit == "append":
            node.append(draw(nested_json))
        elif edit == "pop" and node:
            node.pop()
        elif edit == "replace" and node:
            node[draw(st.integers(0, len(node) - 1))] = draw(nested_json)
    return value


def parse_outcome(parse, raw, ndim):
    """The array as dtype, shape and bytes, or the text of the refusal."""
    try:
        values = parse(raw, ndim, "field")
    except ParseError as exc:
        return str(exc)
    return values.dtype.str, values.shape, values.tobytes()


@given(data=st.data(), ndim=st.integers(1, 3))
@settings(max_examples=1500, deadline=None)
def test_parse_numbers_accepts_and_refuses_as_the_one_array_parser(data, ndim):
    raw = data.draw(st.one_of(near_rectangular(ndim), nested_json), label="field")
    expected = parse_outcome(parse_numbers_oracle.parse_numbers, raw, ndim)
    assert parse_outcome(fileio._parse_numbers, raw, ndim) == expected


def nested_field(flat, ndim):
    """``flat`` as a field ``ndim`` deep: [re, im] pairs below one level, rows of 16 pairs at 3."""
    if ndim == 1:
        return flat
    pairs = [flat[i:i + 2] for i in range(0, len(flat), 2)]
    return pairs if ndim == 2 else [pairs[r:r + 16] for r in range(0, len(pairs), 16)]


@pytest.mark.parametrize("ndim", [1, 2, 3])
@pytest.mark.parametrize("spot", [0, 517, 1023])
def test_parse_numbers_finds_a_boolean_among_many_exact_zeros(ndim, spot):
    flat = [0.5 if i % 7 else 0 for i in range(1024)]
    for leaf, refused in ((True, True), (1, False)):
        flat[spot] = leaf
        raw = nested_field(flat, ndim)
        expected = parse_outcome(parse_numbers_oracle.parse_numbers, raw, ndim)
        assert (expected == f"field must be {parse_numbers_oracle.FORMS[ndim]}") is refused
        assert parse_outcome(fileio._parse_numbers, raw, ndim) == expected


# ---------------------------------------------------------------------------
# the read path does only the work a document's bytes need

LEGACY_ZERO = re.compile(r"-0\.0(?=[,\]])")


def legacy_form(text: str) -> str:
    """``text`` with each -0.0 written as -0, as the "%.17g" writer wrote it."""
    return LEGACY_ZERO.sub("-0", text)


def with_negative_zeros(values: np.ndarray) -> np.ndarray:
    """``values`` as complex with its first and last imaginary parts -0.0."""
    values = np.array(values, dtype=complex)
    flat = values.reshape(-1)
    flat.imag[[0, -1]] = -0.0
    return values


def with_positive_zeros(values: np.ndarray) -> np.ndarray:
    """A copy of ``values`` with every zero part +0.0."""
    values = np.array(values)
    parts = values.view(np.float64)
    parts[parts == 0] = 0.0
    return values


def signed_zero_documents():
    """(reader, writer, object, its array fields), each with -0.0 parts only in
    its last array field. The plan's earlier fields hold 0.0 parts."""
    weights = np.array([0.25, 0.75])
    states = with_negative_zeros(np.array([[0.6, 0.8], [0.8, -0.6]]) + 0.0j)
    plan = hadamard_plan()  # every imaginary part 0.0
    unitary = with_negative_zeros(plan.unitary)
    plan.set_unitary(unitary)
    return {
        "ensemble": (
            fileio.read_ensemble, fileio.write_ensemble, Ensemble(2, weights, states),
            ("weights", "states"),
        ),
        "density matrix": (
            fileio.read_density_matrix, fileio.write_density_matrix,
            DensityMatrix(2, with_negative_zeros(np.diag([0.3, 0.7]))), ("matrix",),
        ),
        "bipartite state": (
            fileio.read_bipartite_state, fileio.write_bipartite_state,
            BipartiteState(1, 2, with_negative_zeros([0.6, 0.8])), ("amplitudes",),
        ),
        "plan": (
            fileio.read_plan, fileio.write_plan, plan, ("coeffs", "isometry", "unitary"),
        ),
    }


@pytest.mark.parametrize("kind", ["ensemble", "density matrix", "bipartite state", "plan"])
def test_a_legacy_minus_zero_reads_as_positive_zero_in_every_reader(tmp_path, kind):
    read, write, value, fields = signed_zero_documents()[kind]
    newer, older = tmp_path / "newer", tmp_path / "older"
    write(newer, value)
    text = newer.read_text()
    assert "-0.0" in text
    older.write_text(legacy_form(text))
    assert "-0.0" not in older.read_text()
    from_new, from_old = read(newer), read(older)
    for name in fields:
        expected = getattr(value, name)
        # JSON's -0 is the integer 0: only the sign of zero is lost
        np.testing.assert_array_equal(
            bits(getattr(from_old, name)), bits(with_positive_zeros(expected))
        )
        np.testing.assert_array_equal(bits(getattr(from_new, name)), bits(expected))
    new_last, old_last = (getattr(doc, fields[-1]).imag for doc in (from_new, from_old))
    assert np.signbit(new_last[new_last == 0]).any()
    assert not np.signbit(old_last[old_last == 0]).any()


@pytest.mark.parametrize(
    "reader, text, name",
    [
        (fileio.read_ensemble, '{"dim": -0, "weights": [1.0], "states": [[[1.0, 0.0]]]}', "dim"),
        (fileio.read_density_matrix, '{"dim": -0, "entries": [[1.0, 0.0]]}', "dim"),
        (
            fileio.read_bipartite_state,
            '{"dim_s": -0, "dim_k": 1, "amplitudes": [[1.0, 0.0]]}',
            "dim_s",
        ),
        (
            fileio.read_bipartite_state,
            '{"dim_s": 1, "dim_k": -0, "amplitudes": [[1.0, 0.0]]}',
            "dim_k",
        ),
    ],
)
def test_a_legacy_minus_zero_dimension_is_refused_as_zero(tmp_path, reader, text, name):
    # JSON's -0 is the integer 0, so it is refused as 0 is
    path = tmp_path / "zero.doc"
    for spelling in (text, text.replace("-0", "0", 1)):
        path.write_text(spelling)
        with pytest.raises(ParseError, match=f"{name} must be a positive integer, got 0$"):
            reader(path)


def zero_holding_documents():
    """(reader, writer, object, its array fields), each array holding exact
    zeros: zero imaginary parts throughout, as in a real density matrix."""
    return {
        "ensemble": (
            fileio.read_ensemble, fileio.write_ensemble,
            Ensemble(2, [0.5, 0.5], [[1, 0], [0, 1]]), ("weights", "states"),
        ),
        "density matrix": (
            fileio.read_density_matrix, fileio.write_density_matrix,
            DensityMatrix(2, np.diag([0.3, 0.7])), ("matrix",),
        ),
        "bipartite state": (
            fileio.read_bipartite_state, fileio.write_bipartite_state,
            BipartiteState(1, 2, [0.6, 0.8]), ("amplitudes",),
        ),
        "plan": (
            fileio.read_plan, fileio.write_plan, hadamard_plan(),
            ("coeffs", "isometry", "unitary"),
        ),
    }


@pytest.mark.parametrize("kind", ["ensemble", "density matrix", "bipartite state", "plan"])
def test_every_reader_parses_once_and_converts_each_array_field_once(tmp_path, monkeypatch, kind):
    read, write, value, fields = zero_holding_documents()[kind]
    path = tmp_path / "zeros.doc"
    write(path, value)
    calls = {"parse": 0, "convert": 0}
    loads, convert = fileio.orjson.loads, fileio._parse_numbers

    def counted_loads(data):
        calls["parse"] += 1
        return loads(data)

    def counted_convert(*args):
        calls["convert"] += 1
        return convert(*args)

    monkeypatch.setattr(fileio.orjson, "loads", counted_loads)
    monkeypatch.setattr(fileio, "_parse_numbers", counted_convert)
    loaded = read(path)
    assert calls == {"parse": 1, "convert": len(fields)}
    for name in fields:
        np.testing.assert_array_equal(bits(getattr(loaded, name)), bits(getattr(value, name)))


def test_a_malformed_legacy_file_is_refused_with_a_position_in_its_own_bytes(tmp_path):
    path = tmp_path / "broken.ens"
    text = '{"dim": 1, "weights": [1.0], "states": [[[1, -0]]] oops}'
    path.write_text(text)
    # the column of "oops" in the file as written
    with pytest.raises(ParseError, match=rf"column {text.index('oops') + 1} "):
        fileio.read_ensemble(path)


def test_the_depth_scan_runs_only_past_the_limit_in_opening_brackets(tmp_path, monkeypatch):
    scans = []
    depth = fileio._nesting_depth
    monkeypatch.setattr(fileio, "_nesting_depth", lambda data: scans.append(1) or depth(data))
    ensemble = random_ensemble(4, 3, np.random.default_rng(1))
    path = tmp_path / "small.ens"
    fileio.write_ensemble(path, ensemble)
    fileio.read_ensemble(path)
    assert scans == []
    # more than MAX_DEPTH brackets, 4 deep: scanned, and read
    wide = random_ensemble(2, fileio.MAX_DEPTH, np.random.default_rng(2))
    fileio.write_ensemble(path, wide)
    assert path.read_text().count("[") > fileio.MAX_DEPTH
    np.testing.assert_array_equal(fileio.read_ensemble(path).states, wide.states)
    assert scans == [1]


def test_write_plan_holds_one_serialized_document(tmp_path):
    # a dim_k of 256 makes the unitary most of a 0.7 MB file; one orjson call
    # serializes the whole document, so the peak is that document and the
    # buffer it grows in, with no rendered copy of any field besides
    rho = random_density_matrix(8, 4, np.random.default_rng(3))
    plan = steering_isometry(
        spectral_ensemble(rho), random_equivalent_ensemble(rho, 6, seed=1), dim_k=256
    )
    plan.unitary  # completed before tracing
    path = tmp_path / "wide.plan"
    tracemalloc.start()
    try:
        fileio.write_plan(path, plan)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.6 * path.stat().st_size
