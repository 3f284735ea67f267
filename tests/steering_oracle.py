"""Loop and einsum reference evaluations of the steering path, for the tests only.

The library forms the weighted projector sum as one matrix product,
proves equivalence in the rank space before it compares two d x d sums,
measures the reference with array operations, and steers through the
isometry's columns without completing a unitary; these are the forms it
replaced, kept to compare the two.
"""

import numpy as np

from purifykit import numerics
from purifykit.ensembles import density_deviation
from purifykit.errors import NotEquivalent, TargetOutsideSupport
from purifykit.numerics import TOL
from purifykit.purification import purify, steering_isometry


def weighted_projector_sum(ensemble):
    """sum_i w_i |psi_i><psi_i| as the einsum the library used before."""
    return np.einsum("i,ij,ik->jk", ensemble.weights, ensemble.states, ensemble.states.conj())


def coefficients_refusal(spectral, target, tol):
    """The error ``steering_coefficients`` raises, or None, decided as it was
    before the rank-space certificate: the d x d density deviation first,
    then the support residuals."""
    if density_deviation(spectral, target) > tol:
        return NotEquivalent
    coeffs = target.states @ spectral.states.conj().T
    residuals = np.linalg.norm(target.states - coeffs @ spectral.states, axis=1)
    return TargetOutsideSupport if np.max(residuals) > tol else None


def outcomes(psi, columns):
    """(index, probability, post-state) per kept column, one column at a time."""
    unnormalized = psi.as_grid() @ columns
    probs = np.sum(np.abs(unnormalized) ** 2, axis=0)
    kept = []
    for j, prob in enumerate(probs):
        if prob < TOL.outcome_floor:
            continue
        kept.append((j, float(prob), unnormalized[:, j] / np.sqrt(prob)))
    return kept


def state_infidelity(outcome_records, target):
    """Largest 1 - |<post_j|tau_j>| over the reached target outcomes, at least 0."""
    posts = {o.index: o.post_state for o in outcome_records}
    infidelity = 0.0
    for j in range(target.size):
        if j in posts:
            infidelity = max(infidelity, 1.0 - numerics.state_fidelity(posts[j], target.states[j]))
    return infidelity


def unitary_path(spectral, target, dim_k):
    """Kept outcomes, weight deviation and state infidelity, measured through the unitary.

    Completes the plan's isometry to a dim_k x dim_k unitary and measures
    every one of its columns, the form steering took before it measured
    through the isometry's columns alone.
    """
    plan = steering_isometry(spectral, target, dim_k=dim_k)
    kept = outcomes(purify(spectral, plan.dim_k), plan.unitary)
    probs = np.zeros(plan.dim_k)
    expected = np.zeros(plan.dim_k)
    expected[: target.size] = target.weights
    infidelity = 0.0
    for j, prob, post in kept:
        probs[j] = prob
        if j < target.size:
            infidelity = max(infidelity, 1.0 - numerics.state_fidelity(post, target.states[j]))
    return kept, numerics.max_abs(probs - expected), infidelity
