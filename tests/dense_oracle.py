"""Dense reference evaluations, for the tests only.

Each term of the correlating Hamiltonian is built as a full
(dim_s * dim_k)^2 matrix with ``np.kron`` and the propagator is the
spectral exponential of their sum through ``np.linalg.eigh``; the qubit
circuit is the three-gate product (R (x) I) CNOT (R^+ (x) I). The library
stores the same operators in factored form and never builds these
matrices, so comparing the two checks one evaluation against an
independent one. Sizes stay small: the cost grows as rank^2 products of
side (dim_s * dim_k).
"""

import numpy as np

from purifykit import numerics


def build_term(j, phi, dim_k):
    """i |phi_j><phi_j| (x) (|e_j><e_0| - |e_0><e_j|) on S (x) K; zero for j = 0."""
    phi = np.asarray(phi, dtype=complex)
    block = np.zeros((dim_k, dim_k), dtype=complex)
    if j != 0:
        block[j, 0] = 1.0
        block[0, j] = -1.0
    return 1j * np.kron(np.outer(phi[j], phi[j].conj()), block)


def build_terms(phi, dim_k):
    return [build_term(j, phi, dim_k) for j in range(len(phi))]


def max_abs(m):
    return float(np.max(np.abs(m))) if np.size(m) else 0.0


def cross_product_max(terms):
    """Largest entry of any product of two distinct terms."""
    return max(
        (max_abs(a @ b) for i, a in enumerate(terms) for k, b in enumerate(terms) if i != k),
        default=0.0,
    )


def commutator_max(terms):
    """Largest entry of any pairwise commutator."""
    return max(
        (max_abs(a @ b - b @ a) for i, a in enumerate(terms) for b in terms[i + 1:]),
        default=0.0,
    )


def power_residuals(j, phi, dim_k):
    """(|H^3 - H|, |H^2 - |phi_j><phi_j| (x) (e_0 e_0^+ + e_j e_j^+)|) for term j."""
    phi = np.asarray(phi, dtype=complex)
    term = build_term(j, phi, dim_k)
    reference = np.zeros((dim_k, dim_k))
    if j != 0:
        reference[0, 0] = reference[j, j] = 1.0
    square = term @ term
    expected = np.kron(np.outer(phi[j], phi[j].conj()), reference)
    return max_abs(square @ term - term), max_abs(square - expected)


def basis_state(dim, index):
    """Standard basis column e_index in the given dimension."""
    vec = np.zeros(dim, dtype=complex)
    vec[index] = 1.0
    return vec


def mat_exp_hermitian(h, scale=1.0):
    """exp(-i scale h) for Hermitian h, from a fresh library decomposition;
    a non-Hermitian h raises ``NotHermitian``."""
    values, vectors = numerics.hermitian_eig(h)
    return (vectors * np.exp(-1j * scale * values)) @ vectors.conj().T


def propagator(phi, dim_k, phase):
    """exp(-i phase H) for H the sum of the terms, through np.linalg.eigh."""
    values, vectors = np.linalg.eigh(sum(build_terms(phi, dim_k)))
    return (vectors * np.exp(-1j * phase * values)) @ vectors.conj().T


def plane_map(phi, dim_k, block):
    """I + sum_{j >= 1} |phi_j><phi_j| (x) (block - I) on the (e_0, e_j) plane of K."""
    phi = np.asarray(phi, dtype=complex)
    out = np.eye(phi.shape[1] * dim_k, dtype=complex)
    for j in range(1, len(phi)):
        plane = np.zeros((dim_k, dim_k), dtype=complex)
        plane[np.ix_([0, j], [0, j])] = np.asarray(block) - np.eye(2)
        out += np.kron(np.outer(phi[j], phi[j].conj()), plane)
    return out


def as_matrix(apply, dim_s, dim_k):
    """The matrix of a map on stacks of (dim_s, dim_k) grids, from the standard basis."""
    side = dim_s * dim_k
    images = apply(np.eye(side, dtype=complex).reshape(side, dim_s, dim_k))
    return images.reshape(side, side).T


# I - Y^2 - iY for Y = sigma_y, the quarter-turn block
QUARTER_TURN = np.array([[0.0, -1.0], [1.0, 0.0]], dtype=complex)


def probe_report(phi, dim_k, block):
    """Evolve every phi_j (x) e_0 and phi_j (x) e_j under the dense plane map of
    ``block`` and of the quarter turn. Returns the fidelities
    |<phi_j (x) e_j| U |phi_j (x) e_0>|, the largest entry by which the two
    maps' images differ, and the (odd, even) power residuals of every term."""
    phi = np.asarray(phi, dtype=complex)
    count = len(phi)
    slots = np.eye(dim_k)
    ready = np.array([np.kron(row, slots[0]) for row in phi])
    moved = np.array([np.kron(row, slots[j]) for j, row in enumerate(phi)])
    probes = np.concatenate([ready, moved])
    evolved = probes @ plane_map(phi, dim_k, block).T
    closed = probes @ plane_map(phi, dim_k, QUARTER_TURN).T
    fidelities = np.abs(np.sum(moved.conj() * evolved[:count], axis=1))
    powers = [power_residuals(j, phi, dim_k) for j in range(count)]
    return fidelities, max_abs(closed - evolved), powers


def plane_block(phase):
    """exp(-i phase sigma_y) = cos(phase) I - i sin(phase) sigma_y."""
    c, s = np.cos(phase), np.sin(phase)
    return np.array([[c, -s], [s, c]], dtype=complex)


# Controlled-NOT with the system qubit (first factor) as control.
CNOT = np.array(
    [
        [1, 0, 0, 0],
        [0, 1, 0, 0],
        [0, 0, 0, 1],
        [0, 0, 1, 0],
    ],
    dtype=complex,
)


def three_gate_circuit(r):
    """The paper's qubit circuit (R (x) I) CNOT (R^+ (x) I) for a 2x2 rotation r."""
    return np.kron(r, np.eye(2)) @ CNOT @ np.kron(r.conj().T, np.eye(2))
