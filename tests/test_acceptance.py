"""Acceptance criteria, one test per criterion, each printing a verdict line.

Every case is seeded, so the whole gate is reproducible; the full module
runs in well under a minute.
"""

import math

import dense_oracle
import numpy as np

from purifykit import fileio, numerics
from purifykit.cli import RunConfig, run
from purifykit.dynamics import (
    EvolutionParams,
    build_model,
    commutator_max,
    cross_product_max,
    evolution_closed_form,
    evolution_numeric,
    power_identities_check,
    purify_via_dynamics,
)
from purifykit.ensembles import (
    Ensemble,
    are_equivalent,
    density_matrix,
    random_density_matrix,
    random_ensemble,
    random_equivalent_ensemble,
    spectral_ensemble,
)
from purifykit.purification import (
    measured_ensemble,
    prepare_ensemble,
    purify,
    steering_isometry,
)
from purifykit.qubit_gates import purification_circuit, qubit_demo, rotation

KET0 = np.array([1.0, 0.0], dtype=complex)
KET1 = np.array([0.0, 1.0], dtype=complex)


def _verdict(name: str, ok: bool, detail: str) -> None:
    print(f"[acceptance] {name}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"{name}: {detail}"


def _random_cases(seed, n_cases):
    rng = np.random.default_rng(seed)
    for _ in range(n_cases):
        dim = int(rng.integers(2, 7))
        count = int(rng.integers(1, 13))
        yield rng, random_ensemble(dim, count, rng)


def test_criterion_1_purification_round_trip():
    worst = 0.0
    for _, source in _random_cases(20260808, 200):
        rho = density_matrix(source)
        spec = spectral_ensemble(rho)
        psi = purify(spec, spec.rank)
        worst = max(worst, numerics.max_abs(psi.reduced_system() - rho.matrix))
    _verdict(
        "criterion 1: purification round trip (200 ensembles)",
        worst <= 1e-10,
        f"max partial-trace residual {worst:.3e}, tol 1e-10",
    )


def test_criterion_2_equivalence_class_closure():
    failures = 0
    checked = 0
    for rng, source in _random_cases(20260808, 200):
        spec = spectral_ensemble(density_matrix(source))
        psi = purify(spec, spec.rank)
        for _ in range(5):
            basis = numerics.haar_unitary(spec.rank, rng)
            measured = measured_ensemble(psi, basis)
            checked += 1
            if not are_equivalent(measured, source, 1e-9):
                failures += 1
    _verdict(
        "criterion 2: measured ensembles stay in the class (1000 bases)",
        failures == 0,
        f"{checked - failures}/{checked} equivalent at tol 1e-9",
    )


def test_criterion_3_steering_completeness():
    rng = np.random.default_rng(31415)
    worst_weight = 0.0
    worst_infidelity = 0.0
    for _ in range(100):
        dim = int(rng.integers(2, 6))
        rank = int(rng.integers(1, dim + 1))
        rho = random_density_matrix(dim, rank, rng)
        count = int(rng.integers(rank, 11))
        target = random_equivalent_ensemble(rho, count, seed=int(rng.integers(2**31)))
        spec = spectral_ensemble(rho)
        _, _, report = prepare_ensemble(spec, target)
        worst_weight = max(worst_weight, report.weight_deviation)
        worst_infidelity = max(worst_infidelity, report.state_infidelity)
    ok = worst_weight <= 1e-9 and worst_infidelity <= 1e-9
    _verdict(
        "criterion 3: steering recovers 100 random equivalent targets",
        ok,
        f"max weight deviation {worst_weight:.3e}, max infidelity "
        f"{worst_infidelity:.3e}, tol 1e-9",
    )


def test_criterion_4_isometry_theorem():
    rng = np.random.default_rng(27182)
    worst = 0.0
    rectangular = 0
    for _ in range(60):
        dim = int(rng.integers(2, 6))
        rank = int(rng.integers(1, dim + 1))
        rho = random_density_matrix(dim, rank, rng)
        count = int(rng.integers(rank + 1, rank + 8))  # always N > n
        target = random_equivalent_ensemble(rho, count, seed=int(rng.integers(2**31)))
        plan = steering_isometry(spectral_ensemble(rho), target)
        if plan.isometry.shape[1] > plan.isometry.shape[0]:
            rectangular += 1
        worst = max(worst, plan.isometry_residual)
    _verdict(
        "criterion 4: isometry rows orthonormal",
        worst <= 1e-9 and rectangular == 60,
        f"max ||VV+-I|| {worst:.3e} over 60 rectangular plans, tol 1e-9",
    )


def test_criterion_5_hamiltonian_algebra():
    # the factored residuals of the library and the dense oracle's, on the same phi
    rng = np.random.default_rng(16180)
    worst_odd = worst_even = worst_comm = worst_cross = 0.0
    for dim in range(2, 9):
        phi = numerics.haar_unitary(dim, rng).T  # random orthonormal basis
        build_model(phi, dim)
        terms = dense_oracle.build_terms(phi, dim)
        for j in range(dim):
            report = power_identities_check(phi, j)
            odd, even = dense_oracle.power_residuals(j, phi, dim)
            worst_odd = max(worst_odd, report.odd_residual, odd)
            worst_even = max(worst_even, report.even_residual, even)
        worst_comm = max(worst_comm, commutator_max(phi), dense_oracle.commutator_max(terms))
        worst_cross = max(
            worst_cross, cross_product_max(phi), dense_oracle.cross_product_max(terms)
        )
    ok = max(worst_odd, worst_even, worst_comm, worst_cross) <= 1e-12
    _verdict(
        "criterion 5: Hamiltonian algebra up to dim 8",
        ok,
        f"cube {worst_odd:.3e}, square-projector {worst_even:.3e}, "
        f"commutators {worst_comm:.3e}, cross-products {worst_cross:.3e}, tol 1e-12",
    )


def test_criterion_6_closed_form_vs_numeric():
    # the library's factored propagators on the full standard basis of S (x) K,
    # against the dense oracle's spectral exponential
    rng = np.random.default_rng(14142)
    worst = 0.0
    for dim in (2, 4, 6):
        phi = numerics.haar_unitary(dim, rng).T
        model = build_model(phi, dim)
        closed = dense_oracle.as_matrix(lambda g: evolution_closed_form(model, g), dim, dim)
        for duration in (math.pi / 2, math.pi / 2 + 2 * math.pi):
            params = EvolutionParams(1.0, duration)
            params.require_correlating()
            numeric = dense_oracle.as_matrix(
                lambda g: evolution_numeric(model, params, g), dim, dim
            )
            oracle = dense_oracle.propagator(phi, dim, params.phase())
            worst = max(
                worst,
                numerics.max_abs(closed - oracle),
                numerics.max_abs(numeric - oracle),
            )
    _verdict(
        "criterion 6: closed form matches the numeric propagator",
        worst <= 1e-10,
        f"max deviation {worst:.3e} at wT = pi/2 and pi/2 + 2pi, tol 1e-10",
    )


def test_criterion_7_dynamic_equals_static_purification():
    rng = np.random.default_rng(17320)
    worst = 0.0
    for _ in range(50):
        dim = int(rng.integers(2, 7))
        count = int(rng.integers(1, 9))
        spec = spectral_ensemble(density_matrix(random_ensemble(dim, count, rng)))
        dynamic = purify_via_dynamics(spec)
        static = purify(spec, spec.rank)
        infidelity = 1.0 - numerics.state_fidelity(
            dynamic.amplitudes, static.amplitudes
        )
        worst = max(worst, infidelity)
    _verdict(
        "criterion 7: dynamic purification equals static (50 ensembles)",
        worst <= 1e-9,
        f"max infidelity {worst:.3e}, tol 1e-9",
    )


def test_criterion_8_qubit_circuit():
    rng = np.random.default_rng(12020)
    worst_map = 0.0
    ready = KET0
    for _ in range(50):
        theta = float(rng.uniform(-math.pi, math.pi))
        phase = float(rng.uniform(-math.pi, math.pi))
        circuit = purification_circuit(theta, phase)
        x_plus, x_minus = rotation(theta, phase).T
        kept = circuit @ np.kron(x_plus, ready)
        moved = circuit @ np.kron(x_minus, ready)
        worst_map = max(
            worst_map,
            numerics.max_abs(kept - np.kron(x_plus, ready)),
            numerics.max_abs(moved - np.kron(x_minus, KET1)),
        )
    demo = qubit_demo(0.3, 0.0)
    weight_dev = numerics.max_abs(np.asarray(demo.recovered.weights) - [0.3, 0.7])
    state_dev = max(
        1.0 - numerics.state_fidelity(demo.recovered.states[0], KET0),
        1.0 - numerics.state_fidelity(demo.recovered.states[1], KET1),
    )
    ok = worst_map <= 1e-12 and weight_dev <= 1e-10 and state_dev <= 1e-10
    _verdict(
        "criterion 8: qubit circuit mappings and the (0.3, 0) demo",
        ok,
        f"max mapping residual {worst_map:.3e} (tol 1e-12), demo weight deviation "
        f"{weight_dev:.3e} and state deviation {state_dev:.3e} (tol 1e-10)",
    )


def test_criterion_9_negative_control(tmp_path):
    rho = density_matrix(Ensemble(2, [0.6, 0.4], [KET0, KET1]))
    partner = random_equivalent_ensemble(rho, 2, seed=99)
    spectral = spectral_ensemble(rho)
    assert are_equivalent(spectral, partner, 1e-9)

    weights = partner.weights.copy()
    weights[0] += 1e-3
    weights[1] -= 1e-3
    perturbed = Ensemble(2, weights, partner.states)
    flipped = not are_equivalent(spectral, perturbed, 1e-6)

    src = tmp_path / "spec.ens"
    tgt = tmp_path / "perturbed.ens"
    fileio.write_ensemble(src, spectral)
    fileio.write_ensemble(tgt, perturbed)
    status = run(RunConfig("steer", inputs=(str(src), str(tgt)), tol=1e-6))

    _verdict(
        "criterion 9: 1e-3 weight perturbation is detected",
        flipped and status == 3,
        f"are_equivalent flipped to False at tol 1e-6: {flipped}, "
        f"steer exit status {status} (want 3)",
    )
