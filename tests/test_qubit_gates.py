"""Tests for the qubit gates and the three-gate purification circuit."""

import numpy as np
import pytest
from dense_oracle import CNOT, three_gate_circuit
from hypothesis import given, settings
from hypothesis import strategies as st

from purifykit import numerics, qubit_gates
from purifykit.ensembles import Ensemble
from purifykit.errors import DimensionMismatch, NotFinite, PurifyKitError
from purifykit.qubit_gates import purification_circuit, qubit_demo, rotation

KET0 = np.array([1.0, 0.0], dtype=complex)
KET1 = np.array([0.0, 1.0], dtype=complex)
PLUS = np.array([1.0, 1.0], dtype=complex) / np.sqrt(2)
MINUS = np.array([1.0, -1.0], dtype=complex) / np.sqrt(2)

# every angle the command line accepts
angles = st.floats(allow_nan=False, allow_infinity=False)


# ---------------------------------------------------------------------------
# gates


@pytest.mark.parametrize("build", [rotation, purification_circuit])
@pytest.mark.parametrize("position", ["theta", "phase"])
@pytest.mark.parametrize(
    "angle, error",
    [
        (0.5 + 0.1j, DimensionMismatch),
        ("a", DimensionMismatch),
        (None, NotFinite),
        (np.array([0.1, 0.2]), DimensionMismatch),
        (np.inf, NotFinite),
    ],
    ids=["complex", "text", "none", "two-element", "inf"],
)
def test_angles_must_be_single_finite_real_numbers(build, position, angle, error):
    with pytest.raises(error):
        build(**{"theta": 0.3, "phase": 0.2, position: angle})


def test_a_boolean_angle_is_a_double_precision_rotation():
    r = rotation(True)
    assert numerics.max_abs(r @ numerics.dag(r) - np.eye(2)) <= 1e-15
    np.testing.assert_array_equal(r, rotation(1.0))


def test_cnot_keeps_control_zero():
    np.testing.assert_allclose(CNOT @ np.kron(KET0, KET0), np.kron(KET0, KET0), atol=1e-15)


def test_cnot_flips_target_for_control_one():
    np.testing.assert_allclose(CNOT @ np.kron(KET1, KET0), np.kron(KET1, KET1), atol=1e-15)


def test_cnot_is_an_involution():
    np.testing.assert_allclose(CNOT @ CNOT, np.eye(4), atol=1e-15)


def test_rotation_at_zero_is_identity():
    np.testing.assert_allclose(rotation(0.0), np.eye(2), atol=1e-15)


def test_rotation_quarter_angle_builds_plus_state():
    np.testing.assert_allclose(rotation(np.pi / 4) @ KET0, PLUS, atol=1e-12)
    # the partner column is the minus state up to a global phase
    assert numerics.state_fidelity(rotation(np.pi / 4) @ KET1, MINUS) > 1 - 1e-12


@given(theta=angles, phase=angles)
@settings(max_examples=80, deadline=None)
def test_rotation_is_unitary(theta, phase):
    r = rotation(theta, phase)
    residual = numerics.max_abs(r @ numerics.dag(r) - np.eye(2))
    assert residual <= 1e-12


# ---------------------------------------------------------------------------
# purification circuit


def test_circuit_with_identity_rotation_is_cnot():
    np.testing.assert_allclose(purification_circuit(0.0), CNOT, atol=1e-15)


def test_circuit_on_the_plus_minus_basis():
    circuit = purification_circuit(np.pi / 4)
    kept = circuit @ np.kron(PLUS, KET0)
    moved = circuit @ np.kron(MINUS, KET0)
    # oracle: explicit 4x4 product of the three gate matrices
    oracle = three_gate_circuit(rotation(np.pi / 4))
    np.testing.assert_allclose(circuit, oracle, atol=1e-14)
    np.testing.assert_allclose(kept, np.kron(PLUS, KET0), atol=1e-12)
    np.testing.assert_allclose(moved, np.kron(MINUS, KET1), atol=1e-12)


@given(theta=angles, phase=angles)
@settings(max_examples=80, deadline=None)
def test_circuit_correlates_its_own_rotation_basis(theta, phase):
    x_plus, x_minus = rotation(theta, phase).T
    circuit = purification_circuit(theta, phase)
    residual = numerics.max_abs(circuit @ numerics.dag(circuit) - np.eye(4))
    assert residual <= 1e-10
    kept = circuit @ np.kron(x_plus, KET0)
    moved = circuit @ np.kron(x_minus, KET0)
    assert numerics.max_abs(kept - np.kron(x_plus, KET0)) <= 1e-12
    assert numerics.max_abs(moved - np.kron(x_minus, KET1)) <= 1e-12


@given(theta=angles, phase=angles)
@settings(max_examples=200, deadline=None)
def test_circuit_is_the_plane_rotation_of_its_basis(theta, phase):
    # the library builds I + P_- (x) (sigma_x - I), the projector (x) 2x2-block
    # form of the correlating Hamiltonian; it is the three-gate product
    oracle = three_gate_circuit(rotation(theta, phase))
    assert numerics.max_abs(purification_circuit(theta, phase) - oracle) <= 1e-15


# ---------------------------------------------------------------------------
# demo


def test_demo_balanced_plus_minus_mixture():
    report = qubit_demo(0.5, np.pi / 4)
    np.testing.assert_allclose(report.recovered.weights, [0.5, 0.5], atol=1e-12)
    assert numerics.state_fidelity(report.recovered.states[0], PLUS) > 1 - 1e-12
    assert numerics.state_fidelity(report.recovered.states[1], MINUS) > 1 - 1e-12
    assert report.passed()


def test_demo_biased_computational_mixture():
    report = qubit_demo(0.3, 0.0)
    np.testing.assert_allclose(report.recovered.weights, [0.3, 0.7], atol=1e-12)
    assert numerics.state_fidelity(report.recovered.states[0], KET0) > 1 - 1e-12
    assert numerics.state_fidelity(report.recovered.states[1], KET1) > 1 - 1e-12


def test_demo_steers_to_a_requested_equivalent_target():
    target = Ensemble(2, [0.5, 0.5], [KET0, KET1])
    report = qubit_demo(0.5, np.pi / 4, target=target)
    assert report.steering_report.weight_deviation <= 1e-9
    assert report.steering_report.state_infidelity <= 1e-9


def test_demo_matches_hamiltonian_evolution():
    report = qubit_demo(0.42, 0.7, phase=0.3)
    assert float(np.min(report.dynamics_fidelities)) >= 1 - 1e-10


def test_demo_rejects_degenerate_weight():
    for q in (0.0, 1.0, np.nan, 1j, "x", None, np.array([0.3, 0.4])):
        with pytest.raises(PurifyKitError):
            qubit_demo(q, 0.1)


def test_demo_report_renders():
    report = qubit_demo(0.3, 0.0)
    text = report.render()
    assert "circuit matrix" in text
    assert "recovered" in text
    assert "(tol" in text
    assert "FAIL" not in text


def test_demo_builds_the_rotation_once(monkeypatch):
    calls = []

    def counted(theta, phase=0.0):
        calls.append((theta, phase))
        return rotation(theta, phase)

    monkeypatch.setattr(qubit_gates, "rotation", counted)
    qubit_demo(0.3, 0.4, 0.5)
    assert calls == [(0.4, 0.5)]
