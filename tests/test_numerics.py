"""Unit and property tests for the dense linear-algebra primitives."""

import ast
import dataclasses
from pathlib import Path

import numpy as np
import pytest
from dense_oracle import basis_state, mat_exp_hermitian
from hypothesis import given, settings
from hypothesis import strategies as st

from purifykit import errors, numerics
from purifykit.errors import (
    ContractViolation,
    DimensionMismatch,
    NotFinite,
    NotHermitian,
    NotSquare,
)
from purifykit.purification import SteeringPlan

# ---------------------------------------------------------------------------
# independent oracles


def taylor_exp_minus_i(h, scale, terms=30):
    """Truncated power series for exp(-i * scale * h)."""
    a = -1j * scale * np.asarray(h, dtype=complex)
    acc = np.eye(a.shape[0], dtype=complex)
    power = np.eye(a.shape[0], dtype=complex)
    factorial = 1.0
    for k in range(1, terms + 1):
        power = power @ a
        factorial *= k
        acc = acc + power / factorial
    return acc


def partial_trace_loop(m, dim_s, dim_k):
    """Blockwise double loop over the reference indices."""
    out = np.zeros((dim_s, dim_s), dtype=complex)
    for i in range(dim_s):
        for j in range(dim_s):
            for k in range(dim_k):
                out[i, j] += m[i * dim_k + k, j * dim_k + k]
    return out


# the sweep skips a candidate whose orthogonal residual is at most this long
COMPLETION_FLOOR = 1e-8


class UnfitRows(ValueError):
    """The rows the sweep was given cannot be completed."""


def gram_schmidt_complete_loop(rows, target_dim):
    """Row-by-row standard-basis sweep: a former implementation, kept as the reference."""
    stack = [np.asarray(row, dtype=complex) for row in rows]
    if len(stack) > target_dim:
        raise UnfitRows(f"{len(stack)} rows cannot fit in dimension {target_dim}")
    for row in stack:
        if row.shape != (target_dim,):
            raise UnfitRows(f"every row must have length {target_dim}")
    if stack:
        given = np.array(stack)
        if not np.all(np.isfinite(given)):
            raise UnfitRows("row entries must be finite")
        tol = numerics.TOL.orthonormality
        if numerics.max_abs(given @ numerics.dag(given) - np.eye(len(stack))) > tol:
            raise UnfitRows(f"input rows are not pairwise orthonormal within {tol}")
    for index in range(target_dim):
        if len(stack) == target_dim:
            break
        candidate = basis_state(target_dim, index)
        for _ in range(2):  # second sweep keeps fp drift below the unitarity check
            for row in stack:
                candidate = candidate - row * np.vdot(row, candidate)
        length = float(np.linalg.norm(candidate))
        if length <= COMPLETION_FLOOR:
            continue
        stack.append(candidate / length)
    if len(stack) != target_dim:
        raise RuntimeError("standard-basis sweep failed to complete the unitary")
    return np.array(stack)


def padded_isometry_rows(dim, n_rows, support, rng):
    """Rows of a Haar unitary on a random column subset, zero elsewhere.

    This is the shape the steering isometry hands to the completion:
    orthonormal rows that vanish outside the columns the target uses.
    """
    columns = np.sort(rng.choice(dim, size=support, replace=False))
    rows = np.zeros((n_rows, dim), dtype=complex)
    rows[:, columns] = numerics.haar_unitary(support, rng)[:n_rows]
    return rows


def random_hermitian(dim, rng):
    z = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    return (z + z.conj().T) / 2


# ---------------------------------------------------------------------------
# input coercion


@pytest.mark.parametrize(
    "values, error",
    [
        ([[1, 0], [0]], DimensionMismatch),
        ([["a", 0], [0, 1]], DimensionMismatch),
        ([[{}, 1]], DimensionMismatch),
        ([[10**400, 0]], NotFinite),
    ],
    ids=["ragged", "text", "object", "huge-integer"],
)
def test_coercion_raises_library_errors_instead_of_numpy_ones(values, error):
    for coerce in (numerics.as_array, numerics.as_matrix, numerics.as_state):
        with pytest.raises(error):
            coerce(values)


def test_row_orthonormality_residual_is_the_largest_gram_deviation():
    rows = numerics.haar_unitary(4, np.random.default_rng(3))[:2]
    assert numerics.row_orthonormality_residual(rows) <= 1e-15
    # two copies of one unit row: the off-diagonal Gram entries are 1
    assert numerics.row_orthonormality_residual(np.array([[0.6, 0.8], [0.6, 0.8]])) == 1.0


# ---------------------------------------------------------------------------
# hermitian_eig


def test_eig_identity():
    values, vectors = numerics.hermitian_eig(np.eye(2))
    np.testing.assert_allclose(values, [1.0, 1.0])
    np.testing.assert_allclose(
        vectors @ numerics.dag(vectors), np.eye(2), atol=1e-12
    )


def test_eig_already_diagonal():
    values, vectors = numerics.hermitian_eig(np.diag([0.7, 0.3]))
    np.testing.assert_allclose(values, [0.7, 0.3])
    assert numerics.state_fidelity(vectors[:, 0], [1, 0]) > 1 - 1e-12
    assert numerics.state_fidelity(vectors[:, 1], [0, 1]) > 1 - 1e-12


def test_eig_reconstructs_random_hermitian():
    rng = np.random.default_rng(5)
    m = random_hermitian(5, rng)
    values, vectors = numerics.hermitian_eig(m)
    rebuilt = (vectors * values) @ numerics.dag(vectors)
    assert numerics.max_abs(rebuilt - m) <= 1e-9


@given(dim=st.integers(2, 8), seed=st.integers(0, 2**32 - 1))
@settings(max_examples=60, deadline=None)
def test_eig_reconstruction_and_orthonormality(dim, seed):
    rng = np.random.default_rng(seed)
    m = random_hermitian(dim, rng)
    values, vectors = numerics.hermitian_eig(m)
    assert np.all(np.diff(values) <= 0)
    rebuilt = (vectors * values) @ numerics.dag(vectors)
    assert numerics.max_abs(rebuilt - m) <= 1e-9
    gram = numerics.dag(vectors) @ vectors
    assert numerics.max_abs(gram - np.eye(dim)) <= 1e-10


def test_eig_rejects_non_square():
    with pytest.raises(NotSquare):
        numerics.hermitian_eig(np.zeros((2, 3)))


def test_eig_rejects_non_hermitian():
    with pytest.raises(NotHermitian):
        numerics.hermitian_eig(np.array([[0.0, 1.0], [0.0, 0.0]]))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_entries_raise_a_library_error(bad):
    with pytest.raises(NotFinite):
        numerics.as_matrix([[1.0, 0.0], [0.0, bad]])
    with pytest.raises(NotFinite):
        numerics.as_state([bad, 0.0])


# ---------------------------------------------------------------------------
# partial_trace_k


def test_partial_trace_product_state():
    proj = np.zeros((4, 4), dtype=complex)
    proj[0, 0] = 1.0  # |0><0| (x) |0><0|
    np.testing.assert_allclose(
        numerics.partial_trace_k(proj, 2, 2), np.diag([1.0, 0.0]), atol=1e-15
    )


def test_partial_trace_bell_projector():
    bell = np.array([1, 0, 0, 1], dtype=complex) / np.sqrt(2)
    proj = np.outer(bell, bell.conj())
    np.testing.assert_allclose(
        numerics.partial_trace_k(proj, 2, 2), np.eye(2) / 2, atol=1e-15
    )


def test_partial_trace_matches_blockwise_oracle():
    rng = np.random.default_rng(11)
    vec = rng.standard_normal(12) + 1j * rng.standard_normal(12)
    vec /= np.linalg.norm(vec)
    proj = np.outer(vec, vec.conj())
    got = numerics.partial_trace_k(proj, 3, 4)
    np.testing.assert_allclose(got, partial_trace_loop(proj, 3, 4), atol=1e-14)


def test_partial_trace_rejects_bad_factorization():
    with pytest.raises(DimensionMismatch):
        numerics.partial_trace_k(np.eye(5), 2, 2)


@given(
    dim_s=st.integers(1, 4), dim_k=st.integers(1, 4), seed=st.integers(0, 2**32 - 1)
)
@settings(max_examples=60, deadline=None)
def test_partial_trace_preserves_trace(dim_s, dim_k, seed):
    rng = np.random.default_rng(seed)
    side = dim_s * dim_k
    m = rng.standard_normal((side, side)) + 1j * rng.standard_normal((side, side))
    reduced = numerics.partial_trace_k(m, dim_s, dim_k)
    assert abs(np.trace(reduced) - np.trace(m)) <= 1e-12 * max(1.0, abs(np.trace(m)))


@given(
    dim_s=st.integers(1, 4), dim_k=st.integers(1, 4), seed=st.integers(0, 2**32 - 1)
)
@settings(max_examples=60, deadline=None)
def test_partial_trace_of_factorized_operator(dim_s, dim_k, seed):
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((dim_s, dim_s)) + 1j * rng.standard_normal((dim_s, dim_s))
    b = rng.standard_normal((dim_k, dim_k)) + 1j * rng.standard_normal((dim_k, dim_k))
    b = b / np.trace(b)  # unit trace
    got = numerics.partial_trace_k(np.kron(a, b), dim_s, dim_k)
    assert numerics.max_abs(got - a) <= 1e-12


# ---------------------------------------------------------------------------
# mat_exp_hermitian, the dense oracle's exponential


def test_exp_zero_generator():
    np.testing.assert_allclose(
        mat_exp_hermitian(np.zeros((3, 3))), np.eye(3), atol=1e-15
    )


def test_exp_diagonal_generator():
    got = mat_exp_hermitian(np.diag([np.pi, 0.0]), scale=1.0)
    np.testing.assert_allclose(got, np.diag([-1.0 + 0j, 1.0 + 0j]), atol=1e-12)


def test_exp_matches_taylor_oracle():
    rng = np.random.default_rng(23)
    h = random_hermitian(6, rng)
    got = mat_exp_hermitian(h, scale=0.37)
    np.testing.assert_allclose(got, taylor_exp_minus_i(h, 0.37), atol=1e-9)


def test_exp_rejects_non_hermitian():
    with pytest.raises(NotHermitian):
        mat_exp_hermitian(np.array([[0.0, 1.0], [0.0, 0.0]]))


@given(
    dim=st.integers(1, 6),
    seed=st.integers(0, 2**32 - 1),
    a=st.floats(-2, 2),
    b=st.floats(-2, 2),
)
@settings(max_examples=60, deadline=None)
def test_exp_unitary_and_semigroup(dim, seed, a, b):
    rng = np.random.default_rng(seed)
    h = random_hermitian(dim, rng)
    u = mat_exp_hermitian(h, scale=a)
    assert numerics.max_abs(u @ numerics.dag(u) - np.eye(dim)) <= 1e-10
    combined = mat_exp_hermitian(h, scale=a + b)
    split = u @ mat_exp_hermitian(h, scale=b)
    assert numerics.max_abs(combined - split) <= 1e-9


# ---------------------------------------------------------------------------
# gram_schmidt_complete


def test_completion_canonical():
    got = numerics.gram_schmidt_complete(np.array([[1.0, 0.0]]))
    np.testing.assert_allclose(got, np.eye(2), atol=1e-15)


def test_completion_of_plus_state():
    row = np.array([1.0, 1.0]) / np.sqrt(2)
    got = numerics.gram_schmidt_complete(row[np.newaxis])
    np.testing.assert_array_equal(got[0], row)
    assert numerics.max_abs(got @ numerics.dag(got) - np.eye(2)) <= 1e-10


def test_completion_of_full_basis_is_noop():
    rows = np.eye(3)[::-1]  # permuted standard basis
    got = numerics.gram_schmidt_complete(rows)
    np.testing.assert_array_equal(got, rows)


def test_completion_sweeps_deterministically():
    row = np.array([1.0, 1.0]) / np.sqrt(2)
    first = numerics.gram_schmidt_complete(row[np.newaxis])
    second = numerics.gram_schmidt_complete(row[np.newaxis])
    np.testing.assert_array_equal(first, second)


@given(
    dim=st.integers(1, 8),
    n_rows=st.integers(0, 8),
    seed=st.integers(0, 2**32 - 1),
)
@settings(max_examples=60, deadline=None)
def test_completion_yields_unitary(dim, n_rows, seed):
    n_rows = min(n_rows, dim)
    rng = np.random.default_rng(seed)
    rows = numerics.haar_unitary(dim, rng)[:n_rows, :]
    got = numerics.gram_schmidt_complete(rows)
    assert got.shape == (dim, dim)
    np.testing.assert_array_equal(got[:n_rows], rows)
    assert numerics.max_abs(got @ numerics.dag(got) - np.eye(dim)) <= 1e-10


@given(dim=st.integers(1, 16), data=st.data(), seed=st.integers(0, 2**32 - 1))
@settings(max_examples=100, deadline=None)
def test_completion_of_any_finite_rows_is_orthonormal_and_orthogonal_to_them(dim, data, seed):
    # non-orthonormal, repeated and all-zero rows: the completion does not need orthonormal rows
    rng = np.random.default_rng(seed)
    n_rows = data.draw(st.integers(0, dim), label="n_rows")
    rows = np.zeros((n_rows, dim), dtype=complex)
    for i in range(n_rows):
        kind = data.draw(st.sampled_from(["random", "repeat", "zero"] if i else ["random", "zero"]))
        if kind == "random":
            scale = data.draw(st.sampled_from([1e-3, 1.0, 1e3]), label="scale")
            rows[i] = scale * (rng.standard_normal(dim) + 1j * rng.standard_normal(dim))
        elif kind == "repeat":
            rows[i] = rows[data.draw(st.integers(0, i - 1), label="repeated row")]
    got = numerics.gram_schmidt_complete(rows)
    assert got.shape == (dim, dim)
    assert got[:n_rows].tobytes() == rows.tobytes()
    completed = got[n_rows:]
    assert numerics.max_abs(completed @ numerics.dag(completed) - np.eye(dim - n_rows)) <= 1e-12
    largest = max([1.0, *np.linalg.norm(rows, axis=1)])
    assert numerics.max_abs(rows @ numerics.dag(completed)) <= 1e-12 * largest


# The completion checks nothing: its one caller, a plan's unitary, hands it
# the isometry that SteeringPlan has already checked, so bad rows stop there.


def test_completion_rejects_too_many_rows():
    # three rows of width two cannot be orthonormal
    with pytest.raises(ContractViolation, match="orthonormality"):
        SteeringPlan(np.eye(3, 1), np.eye(3, 2), dim_k=2).unitary


@pytest.mark.parametrize("rows", [[[1.0, 0.0, 0.0]], [[1.0, 0.0], [0.0, 1.0, 0.0]]])
def test_completion_rejects_rows_of_the_wrong_length(rows):
    with pytest.raises(DimensionMismatch):
        SteeringPlan(np.eye(len(rows), 1), rows, dim_k=2).unitary


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_completion_rejects_non_finite_rows(bad):
    with pytest.raises(NotFinite):
        SteeringPlan([[1.0]], [[bad, 0.0]], dim_k=2).unitary


def complement_projector(unitary, n_rows):
    """Projector onto the span of the rows past n_rows; no basis choice inside it shows."""
    completed = unitary[n_rows:]
    return numerics.dag(completed) @ completed


def assert_matches_row_loop_oracle(rows, dim):
    got = numerics.gram_schmidt_complete(rows)
    oracle = gram_schmidt_complete_loop(rows, dim)
    np.testing.assert_array_equal(got[: len(rows)], rows)
    assert numerics.max_abs(
        complement_projector(got, len(rows)) - complement_projector(oracle, len(rows))
    ) <= 1e-12
    assert numerics.max_abs(got @ numerics.dag(got) - np.eye(dim)) <= 1e-10


@given(
    dim=st.integers(1, 32),
    data=st.data(),
    seed=st.integers(0, 2**32 - 1),
)
@settings(max_examples=60, deadline=None)
def test_completion_matches_row_loop_oracle(dim, data, seed):
    support = data.draw(st.integers(1, dim), label="support")
    n_rows = data.draw(st.integers(0, support), label="n_rows")
    rows = padded_isometry_rows(dim, n_rows, support, np.random.default_rng(seed))
    assert_matches_row_loop_oracle(rows, dim)


def test_completion_matches_row_loop_oracle_at_steering_size():
    # 32 rows supported on the first 64 of 128 columns, as when rank-32
    # spectral states steer into 64 target states with a 128-dim reference
    rows = np.zeros((32, 128), dtype=complex)
    rows[:, :64] = numerics.haar_unitary(64, np.random.default_rng(128))[:32]
    assert_matches_row_loop_oracle(rows, 128)


# ---------------------------------------------------------------------------
# the tolerance table and the error classes


def package_nodes(skip=""):
    """Every AST node of the package's modules, except the module ``skip``."""
    for path in sorted(Path(numerics.__file__).parent.glob("*.py")):
        if path.name != skip:
            yield from ast.walk(ast.parse(path.read_text(encoding="utf-8")))


def test_every_tolerance_is_read_in_the_package():
    read = {
        node.attr
        for node in package_nodes()
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
        and node.value.id == "TOL"
    }
    unread = {f.name for f in dataclasses.fields(numerics.TOL)} - read
    assert not unread, f"tolerances no check reads: {sorted(unread)}"


def test_every_error_class_is_used_outside_its_definition():
    used = set()
    for node in package_nodes(skip="errors.py"):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Attribute):
            used.add(node.attr)
    classes = {
        name for name, value in vars(errors).items()
        if isinstance(value, type) and value.__module__ == errors.__name__
    }
    unused = classes - {"PurifyKitError"} - used
    assert not unused, f"error classes no module raises or names: {sorted(unused)}"


def test_small_float_literals_live_only_in_the_tolerance_table():
    package = Path(numerics.__file__).parent
    strays = []
    for path in sorted(package.glob("*.py")):
        if path.name == "numerics.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Constant) and isinstance(node.value, float):
                if 0 < abs(node.value) < 1e-6:
                    strays.append(f"{path.name}:{node.lineno}: {node.value!r}")
    assert not strays, "tolerance literals outside numerics.TOL:\n" + "\n".join(strays)


def test_no_module_forms_a_kronecker_product():
    # operators on S (x) K stay factored as projector (x) 2x2 block; the
    # dense Kronecker forms live in the tests, as oracles
    package = Path(numerics.__file__).parent
    products = []
    for path in sorted(package.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Call) and "kron" in (
                getattr(node.func, "id", None),
                getattr(node.func, "attr", None),
            ):
                products.append(f"{path.name}:{node.lineno}")
    assert not products, f"np.kron calls: {products}"


# numpy's Python-level wrappers of the ndarray reductions; the methods run
# the same ufunc reductions without the wrapper's dispatch
WRAPPED_REDUCTIONS = {"max", "min", "sum", "all", "any", "fill_diagonal"}


def _reduces_through_a_wrapper(call: ast.Call) -> bool:
    """``np.max(...)``, ``numpy.sum(...)`` and the like, or ``np.fill_diagonal``."""
    func = call.func
    return (
        isinstance(func, ast.Attribute)
        and func.attr in WRAPPED_REDUCTIONS
        and getattr(func.value, "id", None) in ("np", "numpy")
    )


def test_the_package_reduces_through_ndarray_methods():
    package = Path(numerics.__file__).parent
    wrapped = []
    for path in sorted(package.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Call) and _reduces_through_a_wrapper(node):
                wrapped.append(f"{path.name}:{node.lineno}: np.{node.func.attr}")
    assert not wrapped, "reductions through numpy's wrappers:\n" + "\n".join(wrapped)


def _forms_the_weighted_state_matrix(node: ast.AST) -> bool:
    """``<e>.states.T * np.sqrt(<...weights...>)``, in either order."""
    if not (isinstance(node, ast.BinOp) and isinstance(node.op, ast.Mult)):
        return False
    sides = (node.left, node.right)
    transposed = any(
        isinstance(side, ast.Attribute) and side.attr == "T"
        and getattr(side.value, "attr", None) == "states"
        for side in sides
    )
    rooted = any(
        isinstance(side, ast.Call) and getattr(side.func, "attr", None) == "sqrt"
        and any(
            "weights" in (getattr(n, "id", None), getattr(n, "attr", None))
            for arg in side.args
            for n in ast.walk(arg)
        )
        for side in sides
    )
    return transposed and rooted


def test_only_the_ensemble_forms_its_weighted_state_matrix():
    # X = states^T sqrt(w) is Ensemble.weighted_states; every other site reads it
    package = Path(numerics.__file__).parent
    sites = []
    for path in sorted(package.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if _forms_the_weighted_state_matrix(node):
                sites.append(path.name)
    assert sites == ["ensembles.py"], f"weighted state matrices formed in: {sites}"
