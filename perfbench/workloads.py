"""The benchmark workloads: seeded inputs, one op, and the op's check.

Inputs are generated here in plain numpy from the benchmark seed; the
library only ever receives the finished density matrices, ensembles and
files. Each workload runs its ops in whole cycles (``cycle`` ops), so a
run always holds the same mix of inputs or commands, and per-op counts
repeat exactly between runs.
"""

from __future__ import annotations

import io
import json
import math
import shutil
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import numpy as np

import oracle

# Fixed problem sizes. "smoke" is for the benchmark's own tests only.
SIZES = {
    "full": {
        "steer-wide": {"dim": 64, "rank": 32, "targets": 64, "dim_k": 128, "pool": 2},
        "dynamics-verify": {"dim": 10, "rank": 8, "pool": 4},
        "cli-files": {"dim": 32, "rank": 16, "count": 24, "kdim": 64, "dyn_rank": 4},
    },
    "smoke": {
        "steer-wide": {"dim": 6, "rank": 3, "targets": 5, "dim_k": 8, "pool": 2},
        "dynamics-verify": {"dim": 4, "rank": 3, "pool": 2},
        "cli-files": {"dim": 4, "rank": 2, "count": 3, "kdim": 4, "dyn_rank": 2},
    },
}
WORKLOADS = tuple(SIZES["full"])


def haar_unitary(rng: np.random.Generator, n: int) -> np.ndarray:
    z = (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))) / math.sqrt(2.0)
    q, r = np.linalg.qr(z)
    diag = np.diagonal(r)
    return q * (diag / np.abs(diag))


def mixed_state(rng: np.random.Generator, dim: int, rank: int):
    """Spectrum bounded away from zero, and orthonormal eigenvectors as rows."""
    weights = rng.uniform(0.5, 1.5, rank)
    weights /= weights.sum()
    vectors = haar_unitary(rng, dim)[:, :rank].T
    return weights, vectors


def density_of(weights, states) -> np.ndarray:
    rho = np.einsum("j,js,jt->st", weights, states, states.conj())
    return (rho + rho.conj().T) / 2.0


def equivalent_ensemble(rng: np.random.Generator, weights, vectors, count: int):
    """``count`` states sharing the density matrix, mixed by a Haar unitary."""
    mixer = haar_unitary(rng, count)[: weights.size]
    unnormalized = (np.sqrt(weights)[:, None] * mixer).T @ vectors
    probs = np.einsum("js,js->j", unnormalized, unnormalized.conj()).real
    return probs / probs.sum(), unnormalized / np.sqrt(probs)[:, None]


class SteerWide:
    """spectral_ensemble + prepare_ensemble over a pool of (rho, target) pairs."""

    def __init__(self, pk, rng, dim, rank, targets, dim_k, pool):
        self.pk = pk
        self.dim_k = dim_k
        self.pool = []
        for _ in range(pool):
            weights, vectors = mixed_state(rng, dim, rank)
            rho = density_of(weights, vectors)
            probs, states = equivalent_ensemble(rng, weights, vectors, targets)
            inputs = (pk.DensityMatrix(dim, rho.copy()), pk.Ensemble(dim, probs.copy(), states.copy()))
            self.pool.append((inputs, (rho, probs, states)))
        self.cycle = pool

    def run(self, i):
        rho, target = self.pool[i][0]
        spectral = self.pk.spectral_ensemble(rho)
        return self.pk.prepare_ensemble(spectral, target, dim_k=self.dim_k)

    def check(self, i, result) -> bool:
        rho, probs, states = self.pool[i][1]
        _, outcomes, _ = result
        return oracle.steering_ok(
            rho,
            probs,
            states,
            [o.index for o in outcomes],
            [o.probability for o in outcomes],
            [o.post_state for o in outcomes],
        )

    def close(self):
        pass


class DynamicsVerify:
    """spectral_ensemble + build_model + verification_report + purify_via_dynamics."""

    def __init__(self, pk, rng, dim, rank, pool):
        self.pk = pk
        self.dim = dim
        self.pool = []
        for _ in range(pool):
            rho = density_of(*mixed_state(rng, dim, rank))
            self.pool.append((pk.DensityMatrix(dim, rho.copy()), rho))
        self.cycle = pool

    def run(self, i):
        pk = self.pk
        spectral = pk.spectral_ensemble(self.pool[i][0])
        model = pk.build_model(spectral.states, spectral.rank)
        report = pk.verification_report(model, pk.EvolutionParams.canonical())
        return report, pk.purify_via_dynamics(spectral)

    def check(self, i, result) -> bool:
        report, psi = result
        return "FAIL" not in report.render() and oracle.purification_ok(
            self.pool[i][1], psi.amplitudes, self.dim
        )

    def close(self):
        pass


def _pairs(values) -> list:
    return [[float(z.real), float(z.imag)] for z in np.asarray(values, dtype=complex).ravel()]


def _write_json(path: Path, doc: dict) -> None:
    path.write_text(json.dumps(doc), encoding="utf-8")


def _ensemble_doc(dim, weights, states) -> dict:
    return {
        "dim": dim,
        "weights": [float(w) for w in weights],
        "states": [_pairs(s) for s in states],
    }


class CliFiles:
    """One fixed cycle of purifykit.cli.main commands over files written at set-up."""

    def __init__(self, cli, rng, seed, workdir: Path, dim, rank, count, kdim, dyn_rank):
        self.cli = cli
        self.workdir = workdir
        workdir.mkdir(parents=True, exist_ok=True)
        weights, vectors = mixed_state(rng, dim, rank)
        files = {
            name: str(workdir / name)
            for name in (
                "rho.dm", "source.ens", "target.ens", "other.ens", "missing.ens",
                "low.ens", "drawn.ens", "plan.json", "psi.state",
            )
        }
        _write_json(
            Path(files["rho.dm"]),
            {"dim": dim, "entries": _pairs(density_of(weights, vectors))},
        )
        source = _ensemble_doc(dim, *equivalent_ensemble(rng, weights, vectors, count))
        _write_json(Path(files["source.ens"]), source)
        _write_json(
            Path(files["target.ens"]),
            _ensemble_doc(dim, *equivalent_ensemble(rng, weights, vectors, count)),
        )
        other = mixed_state(rng, dim, rank)
        _write_json(
            Path(files["other.ens"]),
            _ensemble_doc(dim, *equivalent_ensemble(rng, *other, count)),
        )
        _write_json(Path(files["missing.ens"]), {"dim": dim, "states": source["states"]})
        low = mixed_state(rng, dim, dyn_rank)
        _write_json(Path(files["low.ens"]), _ensemble_doc(dim, *low))
        q, theta, phase = rng.uniform(0.2, 0.8), rng.uniform(0.1, 3.0), rng.uniform(0.0, 3.0)

        # (argv, expected exit code, output file or None)
        self.commands = [
            (["random-equiv", files["rho.dm"], "--count", str(count), "--seed", str(seed),
              "--out", files["drawn.ens"]], 0, files["drawn.ens"]),
            (["equiv", files["source.ens"], files["drawn.ens"]], 0, None),
            (["equiv", files["source.ens"], files["other.ens"]], 3, None),
            (["equiv", files["source.ens"], files["missing.ens"]], 1, None),
            (["steer", files["source.ens"], files["target.ens"], "--out", files["plan.json"]],
             0, files["plan.json"]),
            (["purify", files["source.ens"], "--kdim", str(kdim), "--out", files["psi.state"]],
             0, files["psi.state"]),
            (["dynamics", files["low.ens"]], 0, None),
            (["qubit-demo", "--q", repr(q), "--theta", repr(theta), "--phase", repr(phase),
              "--seed", str(seed)], 0, None),
        ]
        self.cycle = len(self.commands)
        self.reference: dict[str, str] = {}  # output file -> digest of its first write

    def run(self, i):
        argv = self.commands[i][0]
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            status = self.cli.main(argv)
        return status, out.getvalue()

    def check(self, i, result) -> bool:
        argv, expected, output = self.commands[i]
        status, text = result
        if status != expected or "FAIL" in text:
            return False
        if output is None:
            return True
        digest = oracle.file_digest(output)
        if self.reference.setdefault(output, digest) != digest:
            return False
        return argv[0] != "steer" or oracle.unitary_ok(oracle.plan_unitary(output))

    def close(self):
        shutil.rmtree(self.workdir, ignore_errors=True)


def make(name: str, seed: int, size: str, workdir: Path):
    """Build workload ``name`` with inputs drawn from ``seed``."""
    import purifykit
    import purifykit.cli

    params = SIZES[size][name]
    rng = np.random.default_rng(seed)
    if name == "steer-wide":
        return SteerWide(purifykit, rng, **params)
    if name == "dynamics-verify":
        return DynamicsVerify(purifykit, rng, **params)
    return CliFiles(purifykit.cli, rng, seed, workdir, **params)
