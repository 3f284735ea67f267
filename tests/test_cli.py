"""Exit-code, artifact, and determinism tests for the command-line surface."""

import os
import subprocess
import sys

import numpy as np
import pytest

from purifykit import fileio
from purifykit.cli import RunConfig, default_tolerance, main, run
from purifykit.ensembles import (
    DensityMatrix,
    Ensemble,
    density_matrix,
    random_equivalent_ensemble,
    spectral_ensemble,
)

KET0 = np.array([1.0, 0.0], dtype=complex)
KET1 = np.array([0.0, 1.0], dtype=complex)
PLUS = np.array([1.0, 1.0], dtype=complex) / np.sqrt(2)
MINUS = np.array([1.0, -1.0], dtype=complex) / np.sqrt(2)


@pytest.fixture
def files(tmp_path):
    """A small zoo of input files sharing tmp_path."""
    mix01 = tmp_path / "mix01.ens"
    mixpm = tmp_path / "mixpm.ens"
    biased = tmp_path / "biased.ens"
    rho = tmp_path / "rho.dm"
    fileio.write_ensemble(mix01, Ensemble(2, [0.5, 0.5], [KET0, KET1]))
    fileio.write_ensemble(mixpm, Ensemble(2, [0.5, 0.5], [PLUS, MINUS]))
    fileio.write_ensemble(biased, Ensemble(2, [0.6, 0.4], [KET0, KET1]))
    fileio.write_density_matrix(rho, DensityMatrix(2, np.diag([0.7, 0.3])))
    return tmp_path


def test_equiv_accepts_equal_density_matrices(files, capsys):
    status = run(RunConfig("equiv", inputs=(str(files / "mix01.ens"), str(files / "mixpm.ens"))))
    assert status == 0
    out = capsys.readouterr().out
    assert "deviation" in out and "(tol" in out


def test_equiv_rejects_different_density_matrices(files):
    status = run(RunConfig("equiv", inputs=(str(files / "mix01.ens"), str(files / "biased.ens"))))
    assert status == 3


def test_equiv_missing_file_is_a_parse_error(files):
    status = run(RunConfig("equiv", inputs=(str(files / "nope.ens"), str(files / "mixpm.ens"))))
    assert status == 1


def test_purify_writes_state_and_residual_line(files, capsys):
    out_path = files / "psi.state"
    status = run(
        RunConfig("purify", inputs=(str(files / "mix01.ens"),), output=str(out_path), dim_k=2)
    )
    assert status == 0
    psi = fileio.read_bipartite_state(out_path)
    assert (psi.dim_s, psi.dim_k) == (2, 2)
    out = capsys.readouterr().out
    assert "partial-trace residual" in out and "PASS" in out


def test_steer_writes_plan(files, capsys):
    out_path = files / "plan.plan"
    status = run(
        RunConfig(
            "steer",
            inputs=(str(files / "mix01.ens"), str(files / "mixpm.ens")),
            output=str(out_path),
        )
    )
    assert status == 0
    plan = fileio.read_plan(out_path)
    assert plan.unitary.shape == (2, 2)
    out = capsys.readouterr().out
    assert out.count("PASS") == 4


def test_steer_non_equivalent_inputs_exit_3(files):
    status = run(
        RunConfig(
            "steer", inputs=(str(files / "mix01.ens"), str(files / "biased.ens"))
        )
    )
    assert status == 3


def test_dynamics_writes_report(files, capsys):
    out_path = files / "dynamics.txt"
    status = run(
        RunConfig("dynamics", inputs=(str(files / "biased.ens"),), output=str(out_path))
    )
    assert status == 0
    text = out_path.read_text()
    assert "closed form vs numeric" in text
    assert "FAIL" not in text


def test_dynamics_respects_omega(files):
    status = run(RunConfig("dynamics", inputs=(str(files / "biased.ens"),), omega=2.5))
    assert status == 0


def test_dynamics_rejects_zero_omega(files):
    status = run(RunConfig("dynamics", inputs=(str(files / "biased.ens"),), omega=0.0))
    assert status == 1


def test_qubit_demo_rejects_out_of_range_q():
    assert run(RunConfig("qubit-demo", q=1.5)) == 1


def test_qubit_demo_runs(files, capsys):
    status = run(RunConfig("qubit-demo", q=0.3, theta=0.0, seed=1))
    assert status == 0
    out = capsys.readouterr().out
    assert "circuit matrix" in out


def test_random_equiv_writes_equivalent_ensemble(files, capsys):
    out_path = files / "drawn.ens"
    status = run(
        RunConfig(
            "random-equiv", inputs=(str(files / "rho.dm"),), output=str(out_path),
            count=4, seed=11,
        )
    )
    assert status == 0
    drawn = fileio.read_ensemble(out_path)
    assert drawn.size == 4
    rho = fileio.read_density_matrix(files / "rho.dm")
    assert np.max(np.abs(density_matrix(drawn).matrix - rho.matrix)) <= 1e-9


def test_random_equiv_is_byte_deterministic(files):
    first = files / "first.ens"
    second = files / "second.ens"
    for path in (first, second):
        status = run(
            RunConfig(
                "random-equiv", inputs=(str(files / "rho.dm"),), output=str(path),
                count=5, seed=3,
            )
        )
        assert status == 0
    assert first.read_bytes() == second.read_bytes()


def test_invalid_ensemble_file_exits_1(files, capsys):
    bad = files / "bad.ens"
    bad.write_text('{"dim": 2, "weights": [0.9], "states": [[[1.0, 0.0], [0.0, 0.0]]]}')
    status = run(RunConfig("equiv", inputs=(str(bad), str(files / "mix01.ens"))))
    assert status == 1
    err = capsys.readouterr().err
    assert "weights" in err  # the message names the violated invariant


def test_malformed_files_exit_1_without_traceback(files, capsys):
    malformed = {
        "scalar.ens": b'{"dim": 2, "weights": [1.0], "states": 5}',
        "latin1.ens": '{"dim": 2, "\u00e9": 1}'.encode("latin-1"),
        "fractional.ens": b'{"dim": 2.7, "weights": [1.0], "states": [[[1, 0], [0, 0]]]}',
    }
    for name, content in malformed.items():
        (files / name).write_bytes(content)
        status = main(["equiv", str(files / name), str(files / "mix01.ens")])
        err = capsys.readouterr().err
        assert status == 1, name
        assert err.startswith("error: ") and "Traceback" not in err, err


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("flag", ["--theta", "--phase"])
@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
def test_non_finite_qubit_demo_input_exits_1_without_traceback(flag, value, capsys):
    status = main(["qubit-demo", f"{flag}={value}"])
    err = capsys.readouterr().err
    assert status == 1
    assert err.startswith("error: ") and "Traceback" not in err, err


def test_nan_tolerance_is_rejected(files, monkeypatch, capsys):
    pair = [str(files / "mix01.ens"), str(files / "mixpm.ens")]
    monkeypatch.delenv("PURIFYKIT_TOL", raising=False)
    assert main(["equiv", *pair, "--tol", "nan"]) == 1
    monkeypatch.setenv("PURIFYKIT_TOL", "nan")
    assert main(["equiv", *pair]) == 1
    err = capsys.readouterr().err
    assert err.count("error: tolerance must be positive, got nan") == 2, err


def test_main_parses_argv_and_dispatches(files, capsys):
    status = main(["equiv", str(files / "mix01.ens"), str(files / "mixpm.ens")])
    assert status == 0


def test_main_tol_flag_overrides_environment(files, monkeypatch):
    monkeypatch.setenv("PURIFYKIT_TOL", "10.0")
    # a huge env tolerance would make the biased pair "equivalent"
    status = main(["equiv", str(files / "mix01.ens"), str(files / "biased.ens")])
    assert status == 0
    status = main(
        ["equiv", str(files / "mix01.ens"), str(files / "biased.ens"), "--tol", "1e-9"]
    )
    assert status == 3


def test_default_tolerance_reads_environment(monkeypatch):
    monkeypatch.delenv("PURIFYKIT_TOL", raising=False)
    assert default_tolerance() == 1e-9
    monkeypatch.setenv("PURIFYKIT_TOL", "1e-6")
    assert default_tolerance() == 1e-6


def test_module_entry_point_runs_in_a_subprocess(files):
    env = dict(os.environ)
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    result = subprocess.run(
        [
            sys.executable,
            "-m",
            "purifykit",
            "equiv",
            str(files / "mix01.ens"),
            str(files / "mixpm.ens"),
        ],
        capture_output=True,
        text=True,
        env=env,
    )
    assert result.returncode == 0, result.stderr
    assert "deviation" in result.stdout


def test_perturbed_weight_flips_equivalence_and_steer_exits_3(files):
    # move 1e-3 of weight between the two components of an equivalent pair
    rho = density_matrix(Ensemble(2, [0.6, 0.4], [KET0, KET1]))
    partner = random_equivalent_ensemble(rho, 2, seed=8)
    weights = partner.weights.copy()
    weights[0] += 1e-3
    weights[1] -= 1e-3
    perturbed = Ensemble(2, weights, partner.states)
    spectral = spectral_ensemble(rho)
    src = files / "spec.ens"
    tgt = files / "perturbed.ens"
    fileio.write_ensemble(src, spectral.base)
    fileio.write_ensemble(tgt, perturbed)
    status = run(RunConfig("steer", inputs=(str(src), str(tgt)), tol=1e-6))
    assert status == 3
