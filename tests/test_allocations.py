"""Memory follows the data: each data-sized path peaks at a small multiple of its bytes.

At d = 1024 a d x d complex matrix takes 16 MB, against 0.5 MB for the
rank-32 spectral states and 1 MB for the 64 target states, so one dense
operator on S, let alone on S (x) K, breaks any of these bounds. Each
``tracemalloc`` peak is taken above the level at entry, with the inputs
already built, and bounded by ``FACTOR`` times the bytes of the arrays
the call reads and returns.
"""

import tracemalloc

import numpy as np
import pytest

from purifykit import EvolutionParams, build_model, prepare_ensemble, verification_report
from purifykit.ensembles import Ensemble, SpectralEnsemble, spectral_ensemble

DIM, RANK, TARGETS = 1024, 32, 64
# the largest peak over the input and output bytes; the three paths measure
# 2.1 (the thin SVD), 1.4 (steering) and 1.5 (the dynamics report)
FACTOR = 3.0


def orthonormal_rows(rng, rows, width):
    """``rows`` orthonormal complex rows of length ``width``: the thin QR of a Gaussian."""
    q, _ = np.linalg.qr(rng.standard_normal((width, rows)) + 1j * rng.standard_normal((width, rows)))
    return np.ascontiguousarray(q.T)


@pytest.fixture(scope="module")
def pair():
    """A rank-32 spectral ensemble on d = 1024 and an equivalent 64-state target."""
    rng = np.random.default_rng(1024)
    weights = np.sort(rng.uniform(0.5, 1.5, RANK))[::-1]
    weights /= weights.sum()
    spectral = SpectralEnsemble(DIM, weights, orthonormal_rows(rng, RANK, DIM))
    mixer = orthonormal_rows(rng, RANK, TARGETS)  # RANK x TARGETS, orthonormal rows
    unnormalized = (np.sqrt(weights)[:, None] * mixer).T @ spectral.states
    probs = np.linalg.norm(unnormalized, axis=1) ** 2
    target = Ensemble(DIM, probs, unnormalized / np.sqrt(probs)[:, None])
    return spectral, target


def nbytes(*arrays) -> int:
    return sum(a.nbytes for a in arrays)


def traced_peak(call):
    """``call()`` and the tracemalloc peak above the allocation level at entry."""
    tracemalloc.start()
    try:
        level, _ = tracemalloc.get_traced_memory()
        result = call()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return result, peak - level


def assert_peak_follows_data(peak, data):
    assert peak <= FACTOR * data, (
        f"peak {peak / 2**20:.2f} MB is {peak / data:.2f} times the data's {data / 2**20:.2f} MB"
    )


def test_the_spectral_ensemble_of_an_ensemble_follows_its_data(pair):
    _, target = pair
    source = Ensemble(DIM, target.weights, target.states)  # weighted states not yet formed
    spectral, peak = traced_peak(lambda: spectral_ensemble(source))
    assert spectral.rank == RANK
    assert_peak_follows_data(
        peak, nbytes(source.weights, source.states, spectral.weights, spectral.states)
    )


def test_steering_follows_its_data(pair):
    spectral, target = pair
    target = Ensemble(DIM, target.weights, target.states)  # weighted states not yet formed
    (plan, outcomes, report), peak = traced_peak(lambda: prepare_ensemble(spectral, target))
    assert report.passed() and len(outcomes) == TARGETS
    assert_peak_follows_data(peak, nbytes(
        spectral.weights, spectral.states, target.weights, target.states,
        plan.coeffs, plan.isometry,
        outcomes.indices, outcomes.probabilities, outcomes.post_states,
    ))


def test_the_dynamics_model_and_its_report_follow_their_data(pair):
    spectral, _ = pair
    phi = spectral.states
    report, peak = traced_peak(
        lambda: verification_report(build_model(phi, RANK), EvolutionParams.canonical())
    )
    assert report.passed()
    assert_peak_follows_data(peak, nbytes(phi))
