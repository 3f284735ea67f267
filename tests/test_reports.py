"""Golden renderings of the verification reports.

Each report is built from fixed field values (all passing, one value above
its tolerance, one NaN) and must render to the literal text below, with a
verdict that agrees with its own lines.
"""

import importlib.util
import math
from pathlib import Path

import numpy as np
import pytest
from dense_oracle import CNOT

from purifykit import numerics, reports
from purifykit.dynamics import (
    QUARTER_TURN,
    CorrelationReport,
    DynamicsReport,
    EvolutionParams,
    PowerIdentityReport,
    build_model,
    _correlation,
    verify_correlating_evolution,
)
from purifykit.ensembles import Ensemble
from purifykit.purification import BipartiteState, MeasurementOutcome, PreparationReport
from purifykit.qubit_gates import QubitDemoReport

NAN = float("nan")
S = math.sqrt(0.5)
SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "cli_byte_check.py"


def preparation(**changes):
    fields = dict(weight_deviation=1e-13, state_infidelity=2e-14, isometry_residual=3e-15,
                  reconstruction_residual=4e-12, tol=1e-9)
    fields.update(changes)
    return PreparationReport(**fields)


def power(**changes):
    fields = dict(reference_index=2, odd_residual=1e-16, even_residual=2.5e-16)
    fields.update(changes)
    return PowerIdentityReport(**fields)


def correlation(*fidelities):
    return CorrelationReport(fidelities=np.array(fidelities or (1.0, 1.0 - 1e-13)))


def dynamics(**changes):
    fields = dict(correlation=correlation(), power_reports=[power(reference_index=0), power()],
                  commutator_maximum=0.0, cross_product_maximum=1e-17, closed_vs_numeric=3e-15)
    fields.update(changes)
    return DynamicsReport(**fields)


def qubit(**changes):
    fields = dict(
        q=0.5, theta=0.0, phase=0.0, circuit=CNOT,
        purified=BipartiteState(2, 2, [S, 0.0, 0.0, S]),
        recovered=Ensemble(2, [0.5, 0.5], [[1.0, 0.0], [0.0, 1.0]]),
        recovered_weight_deviation=0.0, recovered_state_infidelity=1e-16,
        steering_target=Ensemble(2, [0.5, 0.5], [[S, S], [S, -S]]),
        steering_outcomes=[MeasurementOutcome(0, 0.5, [S, S]), MeasurementOutcome(1, 0.5, [S, -S])],
        steering_report=preparation(), dynamics_fidelities=np.array([1.0, 1.0]),
    )
    fields.update(changes)
    return QubitDemoReport(**fields)


CASES = {
    "preparation-pass": preparation(),
    "preparation-fail": preparation(tol=1e-6, isometry_residual=5e-9),
    "preparation-nan": preparation(state_infidelity=NAN),
    "power-pass": power(),
    "power-fail": power(even_residual=5e-12),
    "power-nan": power(odd_residual=NAN),
    "correlation-pass": correlation(),
    "correlation-fail": correlation(1.0, 1.0 - 1e-9),
    "correlation-nan": correlation(NAN, 1.0),
    "dynamics-pass": dynamics(),
    "dynamics-fail": dynamics(commutator_maximum=3e-12),
    "dynamics-nan": dynamics(power_reports=[power(odd_residual=NAN)]),
    "qubit-pass": qubit(),
    "qubit-fail": qubit(recovered_state_infidelity=3e-10),
    "qubit-nan": qubit(dynamics_fidelities=np.array([NAN, 1.0])),
}

GOLDEN = {
    "preparation-pass": (
        "max weight deviation: 1.000e-13 (tol 1.0e-09): PASS",
        "max state infidelity: 2.000e-14 (tol 1.0e-09): PASS",
        "isometry residual: 3.000e-15 (tol 1.0e-09): PASS",
        "purified-state reconstruction residual: 4.000e-12 (tol 1.0e-09): PASS",
    ),
    "preparation-fail": (
        "max weight deviation: 1.000e-13 (tol 1.0e-06): PASS",
        "max state infidelity: 2.000e-14 (tol 1.0e-06): PASS",
        "isometry residual: 5.000e-09 (tol 1.0e-09): FAIL",
        "purified-state reconstruction residual: 4.000e-12 (tol 1.0e-06): PASS",
    ),
    "preparation-nan": (
        "max weight deviation: 1.000e-13 (tol 1.0e-09): PASS",
        "max state infidelity: nan (tol 1.0e-09): FAIL",
        "isometry residual: 3.000e-15 (tol 1.0e-09): PASS",
        "purified-state reconstruction residual: 4.000e-12 (tol 1.0e-09): PASS",
    ),
    "power-pass": (
        "term 2: cube-equals-self residual: 1.000e-16 (tol 1.0e-12): PASS",
        "term 2: square-projector residual: 2.500e-16 (tol 1.0e-12): PASS",
    ),
    "power-fail": (
        "term 2: cube-equals-self residual: 1.000e-16 (tol 1.0e-12): PASS",
        "term 2: square-projector residual: 5.000e-12 (tol 1.0e-12): FAIL",
    ),
    "power-nan": (
        "term 2: cube-equals-self residual: nan (tol 1.0e-12): FAIL",
        "term 2: square-projector residual: 2.500e-16 (tol 1.0e-12): PASS",
    ),
    "correlation-pass": (
        "correlation infidelity, state 0: 0.000e+00 (tol 1.0e-10): PASS",
        "correlation infidelity, state 1: 1.000e-13 (tol 1.0e-10): PASS",
    ),
    "correlation-fail": (
        "correlation infidelity, state 0: 0.000e+00 (tol 1.0e-10): PASS",
        "correlation infidelity, state 1: 1.000e-09 (tol 1.0e-10): FAIL",
    ),
    "correlation-nan": (
        "correlation infidelity, state 0: nan (tol 1.0e-10): FAIL",
        "correlation infidelity, state 1: 0.000e+00 (tol 1.0e-10): PASS",
    ),
    "dynamics-pass": (
        "correlation infidelity, state 0: 0.000e+00 (tol 1.0e-10): PASS",
        "correlation infidelity, state 1: 1.000e-13 (tol 1.0e-10): PASS",
        "term 0: cube-equals-self residual: 1.000e-16 (tol 1.0e-12): PASS",
        "term 0: square-projector residual: 2.500e-16 (tol 1.0e-12): PASS",
        "term 2: cube-equals-self residual: 1.000e-16 (tol 1.0e-12): PASS",
        "term 2: square-projector residual: 2.500e-16 (tol 1.0e-12): PASS",
        "commutator maximum: 0.000e+00 (tol 1.0e-12): PASS",
        "cross-product maximum: 1.000e-17 (tol 1.0e-12): PASS",
        "closed form vs numeric propagator: 3.000e-15 (tol 1.0e-10): PASS",
    ),
    "dynamics-fail": (
        "correlation infidelity, state 0: 0.000e+00 (tol 1.0e-10): PASS",
        "correlation infidelity, state 1: 1.000e-13 (tol 1.0e-10): PASS",
        "term 0: cube-equals-self residual: 1.000e-16 (tol 1.0e-12): PASS",
        "term 0: square-projector residual: 2.500e-16 (tol 1.0e-12): PASS",
        "term 2: cube-equals-self residual: 1.000e-16 (tol 1.0e-12): PASS",
        "term 2: square-projector residual: 2.500e-16 (tol 1.0e-12): PASS",
        "commutator maximum: 3.000e-12 (tol 1.0e-12): FAIL",
        "cross-product maximum: 1.000e-17 (tol 1.0e-12): PASS",
        "closed form vs numeric propagator: 3.000e-15 (tol 1.0e-10): PASS",
    ),
    "dynamics-nan": (
        "correlation infidelity, state 0: 0.000e+00 (tol 1.0e-10): PASS",
        "correlation infidelity, state 1: 1.000e-13 (tol 1.0e-10): PASS",
        "term 2: cube-equals-self residual: nan (tol 1.0e-12): FAIL",
        "term 2: square-projector residual: 2.500e-16 (tol 1.0e-12): PASS",
        "commutator maximum: 0.000e+00 (tol 1.0e-12): PASS",
        "cross-product maximum: 1.000e-17 (tol 1.0e-12): PASS",
        "closed form vs numeric propagator: 3.000e-15 (tol 1.0e-10): PASS",
    ),
    "qubit-pass": (
        "inputs: q = 0.5, theta = 0, phase = 0",
        "circuit matrix:",
        "[+1.000000+0.000000j, +0.000000+0.000000j, +0.000000+0.000000j, +0.000000+0.000000j]",
        "[+0.000000+0.000000j, +1.000000+0.000000j, +0.000000+0.000000j, +0.000000+0.000000j]",
        "[+0.000000+0.000000j, +0.000000+0.000000j, +0.000000+0.000000j, +1.000000+0.000000j]",
        "[+0.000000+0.000000j, +0.000000+0.000000j, +1.000000+0.000000j, +0.000000+0.000000j]",
        "recovered mixture (reference measured in the computational basis):",
        "  weight 0.500000000000  state [+1.000000+0.000000j, +0.000000+0.000000j]",
        "  weight 0.500000000000  state [+0.000000+0.000000j, +1.000000+0.000000j]",
        "recovered weight deviation: 0.000e+00 (tol 1.0e-10): PASS",
        "recovered state infidelity: 1.000e-16 (tol 1.0e-10): PASS",
        "steered equivalent mixture (2 states):",
        "  outcome 0: probability 0.500000000000  state [+0.707107+0.000000j, +0.707107+0.000000j]",
        "  outcome 1: probability 0.500000000000  state [+0.707107+0.000000j, -0.707107+0.000000j]",
        "max weight deviation: 1.000e-13 (tol 1.0e-09): PASS",
        "max state infidelity: 2.000e-14 (tol 1.0e-09): PASS",
        "isometry residual: 3.000e-15 (tol 1.0e-09): PASS",
        "purified-state reconstruction residual: 4.000e-12 (tol 1.0e-09): PASS",
        "circuit vs Hamiltonian evolution: 0.000e+00 (tol 1.0e-10): PASS",
    ),
    "qubit-fail": (
        "inputs: q = 0.5, theta = 0, phase = 0",
        "circuit matrix:",
        "[+1.000000+0.000000j, +0.000000+0.000000j, +0.000000+0.000000j, +0.000000+0.000000j]",
        "[+0.000000+0.000000j, +1.000000+0.000000j, +0.000000+0.000000j, +0.000000+0.000000j]",
        "[+0.000000+0.000000j, +0.000000+0.000000j, +0.000000+0.000000j, +1.000000+0.000000j]",
        "[+0.000000+0.000000j, +0.000000+0.000000j, +1.000000+0.000000j, +0.000000+0.000000j]",
        "recovered mixture (reference measured in the computational basis):",
        "  weight 0.500000000000  state [+1.000000+0.000000j, +0.000000+0.000000j]",
        "  weight 0.500000000000  state [+0.000000+0.000000j, +1.000000+0.000000j]",
        "recovered weight deviation: 0.000e+00 (tol 1.0e-10): PASS",
        "recovered state infidelity: 3.000e-10 (tol 1.0e-10): FAIL",
        "steered equivalent mixture (2 states):",
        "  outcome 0: probability 0.500000000000  state [+0.707107+0.000000j, +0.707107+0.000000j]",
        "  outcome 1: probability 0.500000000000  state [+0.707107+0.000000j, -0.707107+0.000000j]",
        "max weight deviation: 1.000e-13 (tol 1.0e-09): PASS",
        "max state infidelity: 2.000e-14 (tol 1.0e-09): PASS",
        "isometry residual: 3.000e-15 (tol 1.0e-09): PASS",
        "purified-state reconstruction residual: 4.000e-12 (tol 1.0e-09): PASS",
        "circuit vs Hamiltonian evolution: 0.000e+00 (tol 1.0e-10): PASS",
    ),
    "qubit-nan": (
        "inputs: q = 0.5, theta = 0, phase = 0",
        "circuit matrix:",
        "[+1.000000+0.000000j, +0.000000+0.000000j, +0.000000+0.000000j, +0.000000+0.000000j]",
        "[+0.000000+0.000000j, +1.000000+0.000000j, +0.000000+0.000000j, +0.000000+0.000000j]",
        "[+0.000000+0.000000j, +0.000000+0.000000j, +0.000000+0.000000j, +1.000000+0.000000j]",
        "[+0.000000+0.000000j, +0.000000+0.000000j, +1.000000+0.000000j, +0.000000+0.000000j]",
        "recovered mixture (reference measured in the computational basis):",
        "  weight 0.500000000000  state [+1.000000+0.000000j, +0.000000+0.000000j]",
        "  weight 0.500000000000  state [+0.000000+0.000000j, +1.000000+0.000000j]",
        "recovered weight deviation: 0.000e+00 (tol 1.0e-10): PASS",
        "recovered state infidelity: 1.000e-16 (tol 1.0e-10): PASS",
        "steered equivalent mixture (2 states):",
        "  outcome 0: probability 0.500000000000  state [+0.707107+0.000000j, +0.707107+0.000000j]",
        "  outcome 1: probability 0.500000000000  state [+0.707107+0.000000j, -0.707107+0.000000j]",
        "max weight deviation: 1.000e-13 (tol 1.0e-09): PASS",
        "max state infidelity: 2.000e-14 (tol 1.0e-09): PASS",
        "isometry residual: 3.000e-15 (tol 1.0e-09): PASS",
        "purified-state reconstruction residual: 4.000e-12 (tol 1.0e-09): PASS",
        "circuit vs Hamiltonian evolution: nan (tol 1.0e-10): FAIL",
    ),
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_render_matches_golden_text(name):
    assert CASES[name].render() == "\n".join(GOLDEN[name])


@pytest.mark.parametrize("name", sorted(CASES))
def test_verdict_agrees_with_rendered_lines(name):
    report = CASES[name]
    assert report.passed() == ("FAIL" not in report.render())
    assert report.passed() == name.endswith("-pass")


def number_pattern():
    """The pattern the golden CLI check masks numbers with."""
    spec = importlib.util.spec_from_file_location("cli_byte_check", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.NUMBER


def test_a_rounding_level_sign_flip_moves_no_whitespace():
    def rendered(sign):
        tiny = sign * 1e-17
        return qubit(
            circuit=CNOT + tiny * (1 - 1j) * (CNOT == 0),
            recovered=Ensemble(2, [0.5, 0.5], [[1.0, tiny], [tiny * 1j, 1.0]]),
            steering_outcomes=[
                MeasurementOutcome(0, 0.5, [S + tiny * 1j, S - tiny]),
                MeasurementOutcome(1, 0.5, [S, -S + tiny]),
            ],
        ).render()

    plus, minus = rendered(1.0), rendered(-1.0)
    assert plus != minus
    number = number_pattern()
    assert number.sub("#", plus) == number.sub("#", minus)


@pytest.mark.parametrize(
    "value, tol, line",
    [
        (1e-13, 1e-9, "residual: 1.000e-13 (tol 1.0e-09): PASS"),
        (1e-9, 1e-9, "residual: 1.000e-09 (tol 1.0e-09): PASS"),
        (2e-9, 1e-9, "residual: 2.000e-09 (tol 1.0e-09): FAIL"),
        (NAN, 1e-9, "residual: nan (tol 1.0e-09): FAIL"),
    ],
)
def test_check_verdict_and_line(value, tol, line):
    check = reports.Check("residual", value, tol)
    assert check.line == line
    assert check.passed == line.endswith("PASS")


@pytest.mark.parametrize(
    "cls",
    [PreparationReport, PowerIdentityReport, CorrelationReport, DynamicsReport, QubitDemoReport],
)
def test_reports_derive_their_verdict_from_the_shared_base(cls):
    assert issubclass(cls, reports.Report)
    assert "passed" not in vars(cls)


def test_a_fidelity_that_rounds_above_one_prints_a_zero_infidelity():
    # |phi_1|^2 = 1 + 1e-12 passes the Gram gate; unclamped, it printed -2.000e-12
    phi = np.eye(2)
    phi[1] *= math.sqrt(1.0 + 1e-12)
    report = verify_correlating_evolution(build_model(phi), EvolutionParams.canonical())
    assert report.render().splitlines()[1] == (
        "correlation infidelity, state 1: 0.000e+00 (tol 1.0e-10): PASS"
    )
    third = np.ones(3) / math.sqrt(3.0)  # <third|third> rounds to 1 + 2**-52
    assert abs(np.vdot(third, third)) > 1.0
    fidelity = numerics.state_fidelity(third, third)
    assert reports.Check("overlap", 1.0 - fidelity, 1e-10).line == (
        "overlap: 0.000e+00 (tol 1.0e-10): PASS"
    )
    # the clamp keeps a NaN, so it still fails
    nan_fidelity = numerics.state_fidelity([NAN, 0.0], [1.0, 0.0])
    assert reports.Check("overlap", 1.0 - nan_fidelity, 1e-10).line == (
        "overlap: nan (tol 1.0e-10): FAIL"
    )
    nan_report = _correlation(np.full((2, 2), NAN), QUARTER_TURN)
    assert nan_report.render().splitlines() == [
        f"correlation infidelity, state {j}: nan (tol 1.0e-10): FAIL" for j in (0, 1)
    ]
