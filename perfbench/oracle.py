"""Per-op correctness checks in plain numpy, independent of purifykit.

Every check takes the numbers or files an op produced and returns True
when they are right within ``TOL``. Nothing here imports the library,
so a defect in the library cannot also hide in its own check.
"""

from __future__ import annotations

import hashlib
import json

import numpy as np

TOL = 1e-9


def _max_abs(values) -> float:
    arr = np.asarray(values)
    return float(np.max(np.abs(arr))) if arr.size else 0.0


def steering_ok(rho, weights, states, indices, probabilities, posts, tol=TOL) -> bool:
    """A steered measurement reproduces its target ensemble and rho.

    Outcome j must exist for every target state j and no other outcome may
    survive; its probability must equal the target weight p_j, its
    post-state must equal the target state up to a phase, and
    sum_j p_j |post_j><post_j| must equal rho.
    """
    weights = np.asarray(weights, dtype=float)
    if list(indices) != list(range(weights.size)):
        return False
    probs = np.asarray(probabilities, dtype=float)
    posts = np.asarray(posts, dtype=complex)
    overlaps = np.abs(np.einsum("js,js->j", np.conj(posts), np.asarray(states, dtype=complex)))
    rebuilt = np.einsum("j,js,jt->st", probs, posts, posts.conj())
    return (
        _max_abs(probs - weights) <= tol
        and _max_abs(1.0 - overlaps) <= tol
        and _max_abs(rebuilt - rho) <= tol
    )


def purification_ok(rho, amplitudes, dim_s: int, tol=TOL) -> bool:
    """Tracing the reference out of a joint pure state gives back rho.

    Amplitudes are row-major over S x K, so the reduced state of S is
    grid @ grid^H with grid of shape (dim_s, dim_k).
    """
    amplitudes = np.asarray(amplitudes, dtype=complex)
    if amplitudes.size % dim_s:
        return False
    grid = amplitudes.reshape(dim_s, -1)
    return _max_abs(grid @ grid.conj().T - rho) <= tol


def unitary_ok(matrix, tol=TOL) -> bool:
    """U U^H equals the identity."""
    u = np.asarray(matrix, dtype=complex)
    if u.ndim != 2 or u.shape[0] != u.shape[1]:
        return False
    return _max_abs(u @ u.conj().T - np.eye(u.shape[0])) <= tol


def plan_unitary(path) -> np.ndarray:
    """The "unitary" field of a steering-plan file, rows of [re, im] pairs."""
    with open(path, encoding="utf-8") as handle:
        rows = json.load(handle)["unitary"]
    return np.array([[complex(re, im) for re, im in row] for row in rows])


def file_digest(path) -> str:
    with open(path, "rb") as handle:
        return hashlib.sha256(handle.read()).hexdigest()
