"""Round-trip and parse-failure tests for the structured text files."""

import ast
import json
import os
import pathlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

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
    np.testing.assert_array_equal(loaded.basis, plan.basis)
    np.testing.assert_array_equal(loaded.coeffs, plan.coeffs)


# the exact bytes of write_plan(hadamard_plan()); "basis" is written from SteeringPlan.basis
GOLDEN_HADAMARD_PLAN = """{
  "coeffs": [[[0.70710678118654746, 0], [0.70710678118654746, 0]], \
[[0.70710678118654746, 0], [-0.70710678118654746, 0]]],
  "isometry": [[[0.70710678118654746, 0], [0.70710678118654746, 0]], \
[[0.70710678118654746, 0], [-0.70710678118654746, 0]]],
  "unitary": [[[0.70710678118654746, 0], [0.70710678118654746, 0]], \
[[0.70710678118654746, 0], [-0.70710678118654746, 0]]],
  "basis": [[[0.70710678118654746, -0], [0.70710678118654746, -0]], \
[[0.70710678118654746, -0], [-0.70710678118654746, -0]]]
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


@pytest.mark.parametrize("edit", ["permuted", "truncated"])
def test_read_plan_requires_basis_to_be_the_unitary_adjoint(tmp_path, edit):
    # both edits leave the basis rows orthonormal
    rho = random_density_matrix(3, 2, np.random.default_rng(12))
    plan = steering_isometry(spectral_ensemble(rho), random_equivalent_ensemble(rho, 4, seed=2))
    path = tmp_path / "plan.plan"
    fileio.write_plan(path, plan)
    doc = json.loads(path.read_text())
    doc["basis"] = doc["basis"][::-1] if edit == "permuted" else doc["basis"][:-1]
    path.write_text(json.dumps(doc))
    with pytest.raises(ContractViolation):
        fileio.read_plan(path)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_read_plan_rejects_a_non_finite_basis(tmp_path, bad):
    # JSON readers accept NaN and Infinity; the basis comparison alone would not see NaN
    path = tmp_path / "plan.plan"
    fileio.write_plan(path, hadamard_plan())
    doc = json.loads(path.read_text())
    doc["basis"][0][0][1] = bad
    path.write_text(json.dumps(doc))
    with pytest.raises(NotFinite):
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


def test_read_plan_rejects_a_non_square_unitary(tmp_path):
    # orthonormal rows, and basis is the conjugate transpose, but 2x3 completes nothing
    plan = {
        "coeffs": np.eye(2),
        "isometry": np.eye(2),
        "unitary": np.eye(3)[:2],
        "basis": np.eye(3)[:, :2],
    }
    path = tmp_path / "wide.plan"
    path.write_text(
        json.dumps({name: [[[x, 0.0] for x in row] for row in m] for name, m in plan.items()})
    )
    with pytest.raises(NotSquare):
        fileio.read_plan(path)
    with pytest.raises(NotSquare):
        SteeringPlan(plan["coeffs"], plan["isometry"], plan["unitary"])


def test_read_plan_rejects_a_unitary_that_does_not_embed_the_isometry(tmp_path):
    # the identity is unitary and its adjoint is the basis, but its leading
    # rows are not the isometry, so it would measure another ensemble
    rho = random_density_matrix(3, 2, np.random.default_rng(12))
    plan = steering_isometry(spectral_ensemble(rho), random_equivalent_ensemble(rho, 4, seed=2))
    path = tmp_path / "plan.plan"
    fileio.write_plan(path, plan)
    doc = json.loads(path.read_text())
    identity = [[[float(i == j), 0.0] for j in range(4)] for i in range(4)]
    doc["unitary"] = doc["basis"] = identity
    path.write_text(json.dumps(doc))
    with pytest.raises(ContractViolation, match="isometry"):
        fileio.read_plan(path)


def test_steering_plan_rejects_an_isometry_wider_than_the_unitary():
    isometry = np.array([[1, 0, 0], [0, 1, 0]])
    with pytest.raises(DimensionMismatch):
        SteeringPlan(isometry.T, isometry, np.eye(2))
    with pytest.raises(DimensionMismatch):
        SteeringPlan(isometry.T, isometry, dim_k=2)


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
# the one-template renderer gives the bytes of the per-number one it replaced

# signed zero, the smallest subnormal, the largest decade, the first integer
# past 16 digits, a value with no short binary form, integers stored as floats
EDGE_FLOATS = [-0.0, 0.0, 5e-324, -5e-324, 1e308, -1e308, 1e16, 0.1, 1.0, -3.0, 2.0**53]
entries = st.one_of(
    st.sampled_from(EDGE_FLOATS), st.floats(allow_nan=False, allow_infinity=False)
)


@given(data=st.data())
@settings(max_examples=300, deadline=None)
def test_render_matches_the_recursive_renderer(data):
    shape = data.draw(hnp.array_shapes(min_dims=1, max_dims=3, min_side=0, max_side=4))
    values = data.draw(hnp.arrays(float, shape, elements=entries), label="real parts")
    if data.draw(st.booleans(), label="complex"):
        imag = data.draw(hnp.arrays(float, shape, elements=entries), label="imaginary parts")
        values = values.astype(complex)
        values.imag = imag  # assigned, not added, so -0.0 parts survive
    if data.draw(st.booleans(), label="transposed"):
        values = values.T  # a strided view, as SteeringPlan.basis is
    assert fileio._render(values) == render_oracle.render(render_oracle.nested(values))


def plan_with_completed_unitary():
    rho = random_density_matrix(3, 2, np.random.default_rng(12))
    return steering_isometry(spectral_ensemble(rho), random_equivalent_ensemble(rho, 4, seed=2))


DOCUMENTS = {
    "ensemble": (fileio.write_ensemble, fileio.read_ensemble, awkward_ensemble),
    "density_matrix": (
        fileio.write_density_matrix,
        fileio.read_density_matrix,
        # -0.0 is written as -0, which a JSON reader takes for the integer 0
        lambda: DensityMatrix(2, [[0.7, -0.0], [0.0, 0.3]]),
    ),
    "state": (
        fileio.write_bipartite_state,
        fileio.read_bipartite_state,
        lambda: BipartiteState(2, 3, np.exp(1j * np.arange(6)) / np.sqrt(6)),
    ),
    "plan": (fileio.write_plan, fileio.read_plan, plan_with_completed_unitary),
}


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
    fileio.read_plan: {name: "rows" for name in ("coeffs", "isometry", "unitary", "basis")},
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
