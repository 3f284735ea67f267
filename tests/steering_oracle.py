"""Loop and einsum reference evaluations of the steering path, for the tests only.

The library forms the weighted projector sum as one matrix product,
proves equivalence in the rank space before it compares two d x d sums,
reads the support residuals from the measured outcome rows, measures the
reference with array operations, and steers through the isometry's
columns without completing a unitary; these are the forms it replaced,
kept to compare the two. Everything here is plain numpy: only the error
classes and ``TOL`` come from the library.
"""

import numpy as np

from purifykit.errors import ContractViolation, NotEquivalent, TargetOutsideSupport
from purifykit.numerics import TOL


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


def isometry(spectral, target):
    """The steering isometry sqrt(p_j / d_i) C[j, i], rank x target size."""
    coeffs = target.states @ spectral.states.conj().T
    return np.sqrt(target.weights)[None, :] / np.sqrt(spectral.weights)[:, None] * coeffs.T


def isometry_refusal(spectral, target, tol):
    """The error ``steering_isometry`` raises for its default ``dim_k``, or None:
    that of :func:`coefficients_refusal`, then ``ContractViolation`` for
    isometry rows further than ``TOL.isometry`` from orthonormal."""
    refusal = coefficients_refusal(spectral, target, tol)
    if refusal is not None:
        return refusal
    rows = isometry(spectral, target)
    gram = rows @ rows.conj().T - np.eye(len(rows))
    return ContractViolation if np.abs(gram).max() > TOL.isometry else None


def outcomes(grid, directions):
    """(index, probability, post-state) per kept outcome, one row of
    directions @ grid.T at a time."""
    unnormalized = directions @ grid.T
    kept = []
    for j, row in enumerate(unnormalized):
        pairs = row.view(float)
        prob = np.einsum("i,i->", pairs, pairs)
        if prob < TOL.outcome_floor:
            continue
        kept.append((j, float(prob), row / np.sqrt(prob)))
    return kept


def infidelity(post, state):
    """1 - |<post|state>|, the overlap clamped at 1."""
    return 1.0 - min(abs(np.vdot(post, state)), 1.0)


def state_infidelity(outcome_records, target):
    """Largest 1 - |<post_j|tau_j>| over the reached target outcomes, at least 0."""
    posts = {o.index: o.post_state for o in outcome_records}
    worst = 0.0
    for j in range(target.size):
        if j in posts:
            worst = max(worst, infidelity(posts[j], target.states[j]))
    return worst


def unitary_path(spectral, target, dim_k):
    """Kept outcomes, weight deviation and state infidelity, measured through a unitary.

    Pads the isometry to dim_k columns, completes its rows to a dim_k x dim_k
    unitary with the complement of a complete QR, and measures the padded
    spectral grid along every one of its columns, the form steering took
    before it measured through the isometry's columns alone.
    """
    rank = spectral.weights.size
    padded = np.zeros((rank, dim_k), dtype=complex)
    padded[:, : target.size] = isometry(spectral, target)
    q, _ = np.linalg.qr(padded.conj().T, mode="complete")
    unitary = np.vstack((padded, q[:, rank:].conj().T))
    grid = np.zeros((spectral.dim, dim_k), dtype=complex)
    grid[:, :rank] = spectral.states.T * np.sqrt(spectral.weights)
    kept = outcomes(grid, unitary.T)
    probs = np.zeros(dim_k)
    expected = np.zeros(dim_k)
    expected[: target.size] = target.weights
    worst = 0.0
    for j, prob, post in kept:
        probs[j] = prob
        if j < target.size:
            worst = max(worst, infidelity(post, target.states[j]))
    return kept, np.abs(probs - expected).max(), worst
