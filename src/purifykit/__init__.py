"""purifykit: constructive purification of finite quantum ensembles.

Build the density matrix of any weighted pure-state mixture, purify it
on an enlarged system, steer the purified state into any equivalent
ensemble by measuring the right reference basis, synthesize the
Hamiltonian that realizes the purification dynamically, and run the
three-gate qubit circuit that does the same for two-level systems.

The root exports the names that the scripts, the README and the
benchmark read; every other name is imported from its own module, such as
``purifykit.purification.SteeringPlan`` or ``purifykit.fileio.read_plan``.
"""

from . import errors
from .dynamics import EvolutionParams, build_model, purify_via_dynamics, verification_report
from .ensembles import (
    DensityMatrix,
    Ensemble,
    are_equivalent,
    random_density_matrix,
    random_equivalent_ensemble,
    spectral_ensemble,
)
from .numerics import gram_schmidt_complete, state_fidelity
from .purification import prepare_ensemble, purify

__version__ = "0.1.0"

__all__ = [
    "DensityMatrix",
    "Ensemble",
    "EvolutionParams",
    "are_equivalent",
    "build_model",
    "errors",
    "gram_schmidt_complete",
    "prepare_ensemble",
    "purify",
    "purify_via_dynamics",
    "random_density_matrix",
    "random_equivalent_ensemble",
    "spectral_ensemble",
    "state_fidelity",
    "verification_report",
]
