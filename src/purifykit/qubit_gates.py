"""Qubit-circuit realization of the purification for two-level systems.

The paper's circuit rotates the system so its mixture basis {x+, x-}
lands on the computational basis, copies the basis label onto the
reference with a controlled-NOT, and rotates back. That product is
I + P_- (x) (sigma_x - I): the Hamiltonian model of :mod:`dynamics` on
{x+, x-}, with its (e_0, e_1) plane turned by sigma_x in place of
exp(-i omega T Y). So the circuit is built as that plane map and no
Kronecker product is formed. The system qubit is the first tensor factor,
the reference qubit the second.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import numerics
from .dynamics import (
    EvolutionParams,
    HamiltonianModel,
    _rotate_planes,
    build_model,
    evolution_numeric,
)
from .ensembles import (
    Ensemble,
    density_matrix,
    random_equivalent_ensemble,
    spectral_ensemble,
)
from .errors import DimensionMismatch, NotFinite, PurifyKitError
from .numerics import TOL
from .purification import (
    BipartiteState,
    Outcomes,
    PreparationReport,
    measure_reference,
    prepare_ensemble,
)
from .reports import Check, Report, format_matrix

# The controlled-NOT's flip of the reference, on its (e_0, e_1) plane.
_SIGMA_X = np.array([[0.0, 1.0], [1.0, 0.0]])


def _scalar(value, name: str) -> float:
    """``value`` as one real number; anything else raises ``DimensionMismatch``."""
    number = numerics.as_array(value, float)
    if number.ndim != 0:
        raise DimensionMismatch(f"{name} must be a single real number, got shape {number.shape}")
    return float(number)


def rotation(theta: float, phase: float = 0.0) -> np.ndarray:
    """Single-qubit rotation whose columns are the mixture basis x+/x-."""
    theta = _scalar(theta, "theta")
    phase = _scalar(phase, "phase")
    if not (np.isfinite(theta) and np.isfinite(phase)):
        raise NotFinite(f"rotation angles must be finite, got theta={theta}, phase={phase}")
    c = np.cos(theta)
    s = np.sin(theta)
    return np.array(
        [
            [c, -np.exp(-1j * phase) * s],
            [np.exp(1j * phase) * s, c],
        ],
        dtype=complex,
    )


def purification_circuit(theta: float, phase: float = 0.0) -> np.ndarray:
    """The 4x4 matrix of the circuit for R = rotation(theta, phase).

    Leaves x+ (x) e_0 alone and sends x- (x) e_0 to x- (x) e_1, where
    x+/x- are the columns of R.
    """
    return _circuit(build_model(rotation(theta, phase).T, 2))


def _circuit(model: HamiltonianModel) -> np.ndarray:
    """The 4x4 matrix of I + P_- (x) (sigma_x - I) for the model on {x+, x-}:
    its images of the basis states, as columns."""
    basis = np.eye(4, dtype=complex).reshape(4, 2, 2)
    return _rotate_planes(model.phi, _SIGMA_X, basis).reshape(4, 4).T


@dataclass
class QubitDemoReport(Report):
    """End-to-end record of one circuit purification + steering run."""

    q: float
    theta: float
    phase: float
    circuit: np.ndarray
    purified: BipartiteState
    recovered: Ensemble
    recovered_weight_deviation: float
    recovered_state_infidelity: float
    steering_target: Ensemble
    steering_outcomes: Outcomes = field(repr=False)
    steering_report: PreparationReport
    dynamics_fidelities: np.ndarray

    def checks(self) -> list[Check]:
        worst = 1.0 - float(self.dynamics_fidelities.min())
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
            format_matrix(self.circuit),
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
    ensemble when omitted). The circuit's images of x+ (x) e_0 and
    x- (x) e_0 are cross-checked against the Hamiltonian propagator of
    the same model on {x+, x-}.
    """
    q = _scalar(q, "q")
    if not 0.0 < q < 1.0:
        raise PurifyKitError(f"q must lie strictly between 0 and 1, got {q}")
    r = rotation(theta, phase)
    x_plus, x_minus = r.T
    model = build_model(r.T, 2)
    circuit = _circuit(model)

    # x+, x- and the input superposition, each beside the ready reference e_0
    ready = np.zeros((3, 2, 2), dtype=complex)
    ready[:, :, 0] = [x_plus, x_minus, np.sqrt(q) * x_plus + np.sqrt(1.0 - q) * x_minus]
    mapped = ready.reshape(3, 4) @ circuit.T
    purified = BipartiteState(2, 2, mapped[2])

    outcomes = measure_reference(purified, np.eye(2, dtype=complex))
    recovered = Ensemble(2, outcomes.probabilities, outcomes.post_states)
    expected_weights = (q, 1.0 - q)
    expected_states = (x_plus, x_minus)
    weight_dev = max(abs(o.probability - expected_weights[o.index]) for o in outcomes)
    infidelity = max(
        1.0 - numerics.state_fidelity(o.post_state, expected_states[o.index])
        for o in outcomes
    )

    rho = density_matrix(recovered)
    spectral = spectral_ensemble(rho)
    if target is None:
        target = random_equivalent_ensemble(rho, count=3, seed=seed)
    _, steering_outcomes, steering_report = prepare_ensemble(spectral, target)

    evolved = evolution_numeric(model, EvolutionParams.canonical(), ready[:2])
    fidelities = [
        numerics.state_fidelity(image, moved.reshape(-1))
        for image, moved in zip(mapped[:2], evolved)
    ]

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
