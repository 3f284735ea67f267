"""Qubit-gate realization of the purification for two-level systems.

Three gates do the whole job: rotate the system so its mixture basis
lands on the computational basis, copy the basis label onto the
reference with a controlled-NOT, and rotate back. The system qubit is
the first tensor factor and the control; the reference qubit is the
second factor and the target.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import numerics
from .dynamics import EvolutionParams, build_model, evolution_numeric
from .ensembles import (
    Ensemble,
    density_matrix,
    random_equivalent_ensemble,
    spectral_ensemble,
)
from .errors import ArityMismatch, NotFinite, NotUnitary, PurifyKitError
from .numerics import TOL
from .purification import (
    BipartiteState,
    MeasurementOutcome,
    PreparationReport,
    measure_reference,
    prepare_ensemble,
)
from .reports import Check, Report, format_matrix


@dataclass
class Gate:
    """A 1- or 2-qubit unitary."""

    arity: int
    matrix: np.ndarray

    def __post_init__(self):
        self.matrix = numerics.as_matrix(self.matrix)
        if self.arity not in (1, 2):
            raise ArityMismatch(f"arity must be 1 or 2, got {self.arity}")
        side = 2**self.arity
        if self.matrix.shape != (side, side):
            raise ArityMismatch(
                f"arity {self.arity} needs a {side}x{side} matrix, got {self.matrix.shape}"
            )
        residual = numerics.max_abs(
            self.matrix @ numerics.dag(self.matrix) - np.eye(side)
        )
        if residual > TOL.gate_unitarity:
            raise NotUnitary(f"gate deviates from unitarity by {residual}")


def cnot() -> Gate:
    """Controlled-NOT with the system qubit (first factor) as control."""
    matrix = np.array(
        [
            [1, 0, 0, 0],
            [0, 1, 0, 0],
            [0, 0, 0, 1],
            [0, 0, 1, 0],
        ],
        dtype=complex,
    )
    return Gate(arity=2, matrix=matrix)


def rotation(theta: float, phase: float = 0.0) -> Gate:
    """Single-qubit rotation whose columns are the mixture basis x+/x-."""
    if not (np.isfinite(theta) and np.isfinite(phase)):
        raise NotFinite(f"rotation angles must be finite, got theta={theta}, phase={phase}")
    c = np.cos(theta)
    s = np.sin(theta)
    matrix = np.array(
        [
            [c, -np.exp(-1j * phase) * s],
            [np.exp(1j * phase) * s, c],
        ],
        dtype=complex,
    )
    return Gate(arity=1, matrix=matrix)


def purification_circuit(r: Gate) -> Gate:
    """Rotate back, copy the label, rotate: (R (x) I) CNOT (R^+ (x) I).

    Leaves x+ (x) e_0 alone and sends x- (x) e_0 to x- (x) e_1, where
    x+/x- are the columns of r.
    """
    if r.arity != 1:
        raise ArityMismatch(f"rotation gate must have arity 1, got {r.arity}")
    identity = np.eye(2, dtype=complex)
    matrix = (
        np.kron(r.matrix, identity)
        @ cnot().matrix
        @ np.kron(numerics.dag(r.matrix), identity)
    )
    return Gate(arity=2, matrix=matrix)


@dataclass
class QubitDemoReport(Report):
    """End-to-end record of one circuit purification + steering run."""

    q: float
    theta: float
    phase: float
    circuit: Gate
    purified: BipartiteState
    recovered: Ensemble
    recovered_weight_deviation: float
    recovered_state_infidelity: float
    steering_target: Ensemble
    steering_outcomes: list[MeasurementOutcome] = field(repr=False)
    steering_report: PreparationReport
    dynamics_fidelities: np.ndarray

    def checks(self) -> list[Check]:
        worst = 1.0 - float(np.min(self.dynamics_fidelities))
        return [
            Check("recovered weight deviation", self.recovered_weight_deviation, TOL.recovery),
            Check("recovered state infidelity", self.recovered_state_infidelity, TOL.recovery),
            *self.steering_report.checks(),
            Check("circuit vs Hamiltonian evolution", worst, TOL.circuit_vs_hamiltonian),
        ]

    def render(self) -> str:
        """The check lines, interleaved with the inputs, the circuit and the outcomes."""
        recovery_weight, recovery_state, *steering, crosscheck = self.checks()
        lines = [
            f"inputs: q = {self.q:g}, theta = {self.theta:g}, phase = {self.phase:g}",
            "circuit matrix:",
            format_matrix(self.circuit.matrix),
            "recovered mixture (reference measured in the computational basis):",
        ]
        for w, state in zip(self.recovered.weights, self.recovered.states):
            lines.append(f"  weight {w:.12f}  state {format_matrix(state)}")
        lines += [recovery_weight.line, recovery_state.line]
        lines.append(f"steered equivalent mixture ({self.steering_target.size} states):")
        for outcome in self.steering_outcomes:
            lines.append(
                f"  outcome {outcome.index}: probability {outcome.probability:.12f}  "
                f"state {format_matrix(outcome.post_state)}"
            )
        lines += [check.line for check in steering]
        lines.append(crosscheck.line)
        return "\n".join(lines)


def qubit_demo(
    q: float,
    theta: float,
    phase: float = 0.0,
    target: Ensemble | None = None,
    seed: int = 0,
) -> QubitDemoReport:
    """Purify the mixture (q, x+; 1-q, x-) with the three-gate circuit.

    Starts from sqrt(q) x+ (x) e_0 + sqrt(1-q) x- (x) e_0, applies the
    circuit, measures the reference to recover the input mixture, then
    steers the purified state into ``target`` (a seeded random equivalent
    ensemble when omitted). The circuit action is cross-checked against
    the Hamiltonian propagator built from {x+, x-} on both initial states.
    """
    if not 0.0 < q < 1.0:
        raise PurifyKitError(f"q must lie strictly between 0 and 1, got {q}")
    r = rotation(theta, phase)
    x_plus = r.matrix[:, 0]
    x_minus = r.matrix[:, 1]
    circuit = purification_circuit(r)

    ready = numerics.basis_state(2, 0)
    start = np.kron(np.sqrt(q) * x_plus + np.sqrt(1.0 - q) * x_minus, ready)
    purified = BipartiteState(2, 2, circuit.matrix @ start)

    outcomes = measure_reference(purified, np.eye(2, dtype=complex))
    recovered = Ensemble(
        2,
        [o.probability for o in outcomes],
        [o.post_state for o in outcomes],
    )
    expected_weights = (q, 1.0 - q)
    expected_states = (x_plus, x_minus)
    weight_dev = max(
        abs(o.probability - expected_weights[o.index]) for o in outcomes
    )
    infidelity = max(
        1.0 - numerics.state_fidelity(o.post_state, expected_states[o.index])
        for o in outcomes
    )

    rho = density_matrix(recovered)
    spectral = spectral_ensemble(rho)
    if target is None:
        target = random_equivalent_ensemble(rho, count=3, seed=seed)
    _, steering_outcomes, steering_report = prepare_ensemble(spectral, target)

    model = build_model(np.array([x_plus, x_minus]), 2)
    propagator = evolution_numeric(model, EvolutionParams.canonical())
    fidelities = []
    for state in (x_plus, x_minus):
        joint = np.kron(state, ready)
        fidelities.append(
            numerics.state_fidelity(circuit.matrix @ joint, propagator @ joint)
        )

    return QubitDemoReport(
        q=q,
        theta=theta,
        phase=phase,
        circuit=circuit,
        purified=purified,
        recovered=recovered,
        recovered_weight_deviation=float(weight_dev),
        recovered_state_infidelity=float(infidelity),
        steering_target=target,
        steering_outcomes=steering_outcomes,
        steering_report=steering_report,
        dynamics_fidelities=np.array(fidelities),
    )
