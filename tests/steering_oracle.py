"""Loop and einsum reference evaluations of the steering path, for the tests only.

The library forms the weighted projector sum as one matrix product,
proves equivalence in the rank space before it compares two d x d sums,
reads the support residuals from the measured outcome rows, measures the
reference with array operations, and steers through the isometry's
columns without completing a unitary; these are the forms it replaced,
kept to compare the two. The equivalence and support decisions here are
plain numpy.
"""

import numpy as np

from purifykit import numerics
from purifykit.errors import ContractViolation, NotEquivalent, TargetOutsideSupport
from purifykit.numerics import TOL
from purifykit.purification import purify, steering_isometry


def weighted_projector_sum(ensemble):
    """sum_i w_i |psi_i><psi_i| as the einsum the library used before."""
    return np.einsum("i,ij,ik->jk", ensemble.weights, ensemble.states, ensemble.states.conj())


def support_residuals(spectral, target):
    """||tau_j - C Phi|| per target state, from the projection C Phi onto the support."""
    coeffs = target.states @ spectral.states.conj().T
    return np.linalg.norm(target.states - coeffs @ spectral.states, axis=1)


def coefficients_refusal(spectral, target, tol):
    """The error ``steering_coefficients`` raises, or None, decided as it was
    before the rank-space certificate: the d x d density deviation first,
    then the support residuals."""
    deviation = np.abs(weighted_projector_sum(spectral) - weighted_projector_sum(target)).max()
    if deviation > tol:
        return NotEquivalent
    return TargetOutsideSupport if np.max(support_residuals(spectral, target)) > tol else None


def isometry_refusal(spectral, target, tol):
    """The error ``steering_isometry`` raises for its default ``dim_k``, or None:
    that of :func:`coefficients_refusal`, then ``ContractViolation`` for
    isometry rows further than ``TOL.isometry`` from orthonormal."""
    refusal = coefficients_refusal(spectral, target, tol)
    if refusal is not None:
        return refusal
    coeffs = target.states @ spectral.states.conj().T
    isometry = np.sqrt(target.weights)[None, :] / np.sqrt(spectral.weights)[:, None] * coeffs.T
    gram = isometry @ isometry.conj().T - np.eye(len(isometry))
    return ContractViolation if np.abs(gram).max() > TOL.isometry else None


def outcomes(psi, directions):
    """(index, probability, post-state) per kept outcome, one row of
    directions @ grid.T at a time."""
    unnormalized = directions @ psi.as_grid().T
    kept = []
    for j, row in enumerate(unnormalized):
        pairs = row.view(float)
        prob = np.einsum("i,i->", pairs, pairs)
        if prob < TOL.outcome_floor:
            continue
        kept.append((j, float(prob), row / np.sqrt(prob)))
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
    along every one of its columns, the form steering took before it measured
    through the isometry's columns alone.
    """
    plan = steering_isometry(spectral, target, dim_k=dim_k)
    kept = outcomes(purify(spectral, plan.dim_k), plan.unitary.T)
    probs = np.zeros(plan.dim_k)
    expected = np.zeros(plan.dim_k)
    expected[: target.size] = target.weights
    infidelity = 0.0
    for j, prob, post in kept:
        probs[j] = prob
        if j < target.size:
            infidelity = max(infidelity, 1.0 - numerics.state_fidelity(post, target.states[j]))
    return kept, numerics.max_abs(probs - expected), infidelity
