"""purifykit: constructive purification of finite quantum ensembles.

Build the density matrix of any weighted pure-state mixture, purify it
on an enlarged system, steer the purified state into any equivalent
ensemble by measuring the right reference basis, synthesize the
Hamiltonian that realizes the purification dynamically, and run the
three-gate qubit circuit that does the same for two-level systems.
"""

from . import errors
from .dynamics import (
    CorrelationReport,
    DynamicsReport,
    EvolutionParams,
    HamiltonianModel,
    PowerIdentityReport,
    build_model,
    evolution_closed_form,
    evolution_numeric,
    power_identities_check,
    purify_via_dynamics,
    verification_report,
    verify_correlating_evolution,
)
from .ensembles import (
    DensityMatrix,
    Ensemble,
    SpectralEnsemble,
    are_equivalent,
    density_matrix,
    random_density_matrix,
    random_ensemble,
    random_equivalent_ensemble,
    spectral_ensemble,
)
from .numerics import (
    gram_schmidt_complete,
    haar_unitary,
    hermitian_eig,
    partial_trace_k,
    state_fidelity,
)
from .purification import (
    BipartiteState,
    MeasurementOutcome,
    PreparationReport,
    SteeringPlan,
    measure_reference,
    measured_ensemble,
    prepare_ensemble,
    purify,
    steering_coefficients,
    steering_isometry,
)
from .qubit_gates import (
    QubitDemoReport,
    purification_circuit,
    qubit_demo,
    rotation,
)

__version__ = "0.1.0"

__all__ = [
    "BipartiteState",
    "CorrelationReport",
    "DensityMatrix",
    "DynamicsReport",
    "Ensemble",
    "EvolutionParams",
    "HamiltonianModel",
    "MeasurementOutcome",
    "PowerIdentityReport",
    "PreparationReport",
    "QubitDemoReport",
    "SpectralEnsemble",
    "SteeringPlan",
    "are_equivalent",
    "build_model",
    "density_matrix",
    "errors",
    "evolution_closed_form",
    "evolution_numeric",
    "gram_schmidt_complete",
    "haar_unitary",
    "hermitian_eig",
    "measure_reference",
    "measured_ensemble",
    "partial_trace_k",
    "power_identities_check",
    "prepare_ensemble",
    "purification_circuit",
    "purify",
    "purify_via_dynamics",
    "qubit_demo",
    "random_density_matrix",
    "random_ensemble",
    "random_equivalent_ensemble",
    "rotation",
    "spectral_ensemble",
    "state_fidelity",
    "steering_coefficients",
    "steering_isometry",
    "verification_report",
    "verify_correlating_evolution",
]
