"""Exit-code, artifact, and determinism tests for the command-line surface."""

import ast
import contextlib
import inspect
import io
import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from purifykit import cli, errors, fileio, numerics
from purifykit.cli import RunConfig, default_tolerance, main, run
from purifykit.ensembles import (
    DensityMatrix,
    Ensemble,
    density_matrix,
    random_ensemble,
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


def test_random_equiv_validates_the_density_matrix_once(files, monkeypatch, capsys):
    # the file's matrix is checked and decomposed on reading; the drawn
    # ensemble is valid by construction, so its deviation needs neither
    calls = []
    validate = DensityMatrix.__post_init__
    monkeypatch.setattr(DensityMatrix, "__post_init__", lambda self: calls.append(validate(self)))
    status = main(["random-equiv", str(files / "rho.dm"), "--count", "4", "--seed", "2"])
    assert status == 0
    assert len(calls) == 1
    assert capsys.readouterr().out.startswith("density-matrix deviation: ")


def test_the_ensemble_commands_decompose_no_density_matrix(files, monkeypatch, capsys):
    # steer, purify and dynamics take the spectral ensemble from the thin SVD
    # of the file's weighted states; no d x d matrix is decomposed
    source = random_ensemble(4, 5, np.random.default_rng(8))
    target = random_equivalent_ensemble(density_matrix(source), 6, seed=3)
    fileio.write_ensemble(files / "source.ens", source)
    fileio.write_ensemble(files / "target.ens", target)
    calls = []
    eigh = np.linalg.eigh
    monkeypatch.setattr(np.linalg, "eigh", lambda *args: calls.append(1) or eigh(*args))
    source_path, target_path = str(files / "source.ens"), str(files / "target.ens")
    for argv in (
        ["steer", source_path, target_path, "--out", str(files / "plan.json")],
        ["purify", source_path, "--kdim", "6", "--out", str(files / "psi.state")],
        ["dynamics", source_path, "--out", str(files / "dynamics.txt")],
    ):
        assert main(argv) == 0, capsys.readouterr()
        assert "FAIL" not in capsys.readouterr().out
    assert calls == []


def test_steer_between_dimensions_exits_1(files, capsys):
    wide = files / "wide.ens"
    fileio.write_ensemble(wide, Ensemble(3, [0.5, 0.5], [[1, 0, 0], [0, 1, 0]]))
    status = main(["steer", str(files / "mix01.ens"), str(wide)])
    captured = capsys.readouterr()
    assert status == 1
    assert captured.err == "error: dimensions differ: 2 vs 3\n"
    assert captured.out == ""


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


def test_infinite_tolerance_is_rejected(files, monkeypatch, capsys):
    # an infinite tolerance would call two orthogonal pure states equivalent
    pair = [str(files / "ket0.ens"), str(files / "ket1.ens")]
    fileio.write_ensemble(pair[0], Ensemble(2, [1.0], [KET0]))
    fileio.write_ensemble(pair[1], Ensemble(2, [1.0], [KET1]))
    monkeypatch.delenv("PURIFYKIT_TOL", raising=False)
    assert main(["equiv", *pair, "--tol", "inf"]) == 1
    monkeypatch.setenv("PURIFYKIT_TOL", "inf")
    assert main(["equiv", *pair]) == 1
    captured = capsys.readouterr()
    assert captured.err.count("error: tolerance must be finite, got inf") == 2, captured.err
    assert captured.out == ""


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


def test_the_cached_parser_answers_each_call_as_a_fresh_process(files, monkeypatch, capsys):
    assert cli.build_parser() is cli.build_parser()
    monkeypatch.delenv("PURIFYKIT_TOL", raising=False)
    env = dict(os.environ)
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")

    def in_process(argv):
        try:
            status = main(argv)
        except SystemExit as exc:
            status = exc.code
        captured = capsys.readouterr()
        return status, captured.out, captured.err

    def fresh_process(argv):
        result = subprocess.run(
            [sys.executable, "-m", "purifykit", *argv], capture_output=True, text=True, env=env
        )
        return result.returncode, result.stdout, result.stderr

    good = ["equiv", str(files / "mix01.ens"), str(files / "mixpm.ens")]
    usage = ["equiv", str(files / "mix01.ens")]
    runs = [good, usage, good]
    outcomes = [in_process(argv) for argv in runs]
    assert [status for status, _, _ in outcomes] == [0, 1, 0]
    assert outcomes[1][2].startswith("usage: purifykit equiv ")
    assert outcomes == [fresh_process(argv) for argv in runs]
    # the tolerance comes from the environment of each call, not of the first
    biased = ["equiv", str(files / "mix01.ens"), str(files / "biased.ens")]
    assert in_process(biased)[0] == 3
    monkeypatch.setenv("PURIFYKIT_TOL", "10.0")
    assert in_process(biased)[0] == 0


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


def test_a_document_nested_a_million_deep_exits_1_in_a_subprocess(files):
    # a parser without a depth limit overflows the C stack here; in a
    # subprocess that fails this test instead of killing the test run
    env = dict(os.environ)
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    deep = files / "deep.ens"
    deep.write_text('{"dim": 1, "weights": [1.0], "states": ' + "[" * 10**6 + "]" * 10**6 + "}")
    result = subprocess.run(
        [sys.executable, "-m", "purifykit", "equiv", str(deep), str(files / "mix01.ens")],
        capture_output=True,
        text=True,
        env=env,
    )
    assert result.returncode == 1, result.stderr
    assert result.stdout == ""
    assert result.stderr.startswith("error: ") and result.stderr.count("\n") == 1


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
    fileio.write_ensemble(src, spectral)
    fileio.write_ensemble(tgt, perturbed)
    status = run(RunConfig("steer", inputs=(str(src), str(tgt)), tol=1e-6))
    assert status == 3


def test_weights_within_the_sum_slack_purify_and_steer(files):
    # the weights sum to 1 + 3e-11, so the purified state's norm is
    # 1 + 1.5e-11: inside the ensemble slack, far outside 1e-12
    slack = files / "slack.ens"
    fileio.write_ensemble(slack, Ensemble(2, [0.50000000003, 0.5], [KET0, KET1]))
    assert main(["equiv", str(slack), str(files / "mix01.ens")]) == 0
    assert main(["purify", str(slack)]) == 0
    assert main(["steer", str(slack), str(slack)]) == 0


@pytest.mark.parametrize("command", [["qubit-demo"], ["random-equiv", "rho.dm", "--count", "3"]])
def test_negative_seed_exits_1(files, command, capsys):
    argv = [str(files / arg) if arg.endswith(".dm") else arg for arg in command]
    assert main([*argv, "--seed", "-1"]) == 1
    assert capsys.readouterr().err == "error: seed must be non-negative, got -1\n"


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
def test_dynamics_rejects_non_finite_omega(files, value, capsys):
    assert main(["dynamics", str(files / "biased.ens"), f"--omega={value}"]) == 1
    assert capsys.readouterr().err == f"error: omega must be finite, got {value}\n"


def test_dynamics_rejects_an_omega_whose_pulse_duration_overflows(files, capsys):
    assert main(["dynamics", str(files / "biased.ens"), "--omega", "1e-320"]) == 1
    assert capsys.readouterr().err == (
        "error: omega 1e-320 is too small: the pulse duration overflows\n"
    )


@pytest.mark.parametrize("value", ["1e308", "-1e308"])
def test_dynamics_accepts_omega_near_the_largest_float(files, value, capsys):
    assert main(["dynamics", str(files / "biased.ens"), f"--omega={value}"]) == 0
    assert "FAIL" not in capsys.readouterr().out


def test_allocation_failure_exits_1_without_traceback(files, monkeypatch, capsys):
    def exhausted(spectral, dim_k):
        raise MemoryError("Unable to allocate 29.1 TiB for an array")

    monkeypatch.setattr(cli, "purify", exhausted)
    assert main(["purify", str(files / "mix01.ens"), "--kdim", "1000000000000"]) == 1
    assert capsys.readouterr().err == "error: Unable to allocate 29.1 TiB for an array\n"


def test_usage_errors_exit_1_with_the_argparse_message(capsys):
    with pytest.raises(SystemExit) as missing:
        main(["equiv", "onlyone"])
    assert missing.value.code == 1
    assert capsys.readouterr().err == (
        "usage: purifykit equiv [-h] [--tol TOL] first second\n"
        "purifykit equiv: error: the following arguments are required: second\n"
    )
    with pytest.raises(SystemExit) as not_an_int:
        main(["qubit-demo", "--seed", "abc"])
    assert not_an_int.value.code == 1
    err = capsys.readouterr().err
    assert err.startswith("usage: purifykit qubit-demo ")
    assert err.endswith("purifykit qubit-demo: error: argument --seed: invalid int value: 'abc'\n")
    with pytest.raises(SystemExit) as helped:
        main(["qubit-demo", "--help"])
    assert helped.value.code == 0


# ---------------------------------------------------------------------------
# exit-code fuzzing: every argv ends in a status of the taxonomy

FUZZ_POSITIONALS = {
    "equiv": ("ensemble", "ensemble"),
    "purify": ("ensemble",),
    "steer": ("ensemble", "ensemble"),
    "dynamics": ("ensemble",),
    "qubit-demo": (),
    "random-equiv": ("rho",),
}
FUZZ_FLAGS = {
    "equiv": ("--tol",),
    "purify": ("--kdim", "--out"),
    "steer": ("--tol", "--out"),
    "dynamics": ("--omega", "--out"),
    "qubit-demo": ("--q", "--theta", "--phase", "--seed"),
    "random-equiv": ("--count", "--seed", "--tol", "--out"),
}
# --count and --kdim stay at 8 or below, so no draw allocates much
fuzz_numbers = st.one_of(
    st.integers(-3, 8),
    st.sampled_from([math.nan, math.inf, -math.inf, 0.0, -0.0, -1.5]),
    st.floats(allow_nan=True, allow_infinity=True),
).map(str)


@pytest.fixture(scope="module")
def fuzz_files(tmp_path_factory):
    root = tmp_path_factory.mktemp("fuzz")
    paths = {
        "mix01.ens": Ensemble(2, [0.5, 0.5], [KET0, KET1]),
        "biased.ens": Ensemble(2, [0.6, 0.4], [KET0, KET1]),
        "pure.ens": Ensemble(2, [1.0], [PLUS]),
    }
    for name, ensemble in paths.items():
        fileio.write_ensemble(root / name, ensemble)
    fileio.write_density_matrix(root / "rho.dm", DensityMatrix(2, np.diag([0.7, 0.3])))
    fileio.write_density_matrix(root / "pure.dm", DensityMatrix(2, np.diag([1.0, 0.0])))
    (root / "junk.ens").write_text("not a document")
    return root


@given(data=st.data())
@settings(max_examples=150, deadline=None)
def test_fuzzed_argv_exits_with_a_taxonomy_status(fuzz_files, data):
    command = data.draw(st.sampled_from(sorted(FUZZ_POSITIONALS)), label="command")
    choices = {
        "ensemble": ["mix01.ens", "biased.ens", "pure.ens", "junk.ens", "absent.ens"],
        "rho": ["rho.dm", "pure.dm", "junk.ens", "absent.dm"],
    }
    positionals = [
        str(fuzz_files / data.draw(st.sampled_from(choices[kind]), label=kind))
        for kind in FUZZ_POSITIONALS[command]
    ]
    kept = data.draw(st.integers(0, len(positionals)), label="positionals kept")
    argv = [command, *positionals[:kept]]
    for flag in data.draw(st.lists(st.sampled_from(FUZZ_FLAGS[command]), unique=True)):
        value = str(fuzz_files / "out.txt") if flag == "--out" else data.draw(fuzz_numbers)
        argv.append(f"{flag}={value}")
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            status = main(argv)
        except SystemExit as exc:
            status = exc.code
    assert status in {0, 1, 2, 3}, argv


# ---------------------------------------------------------------------------
# the exit taxonomy lives on the error classes


def test_every_error_class_carries_a_taxonomy_status():
    classes = [
        c for c in vars(errors).values() if isinstance(c, type) and c.__module__ == errors.__name__
    ]
    assert errors.PurifyKitError in classes
    for cls in classes:
        assert issubclass(cls, errors.PurifyKitError), cls
        assert cls.exit_status in {1, 2, 3}, cls
    numerical = {
        errors.ContractViolation,
        errors.NotOrthonormal,
        errors.NotHermitian,
        errors.NotSquare,
    }
    semantic = {errors.NotEquivalent, errors.TargetOutsideSupport}
    assert {c for c in classes if c.exit_status == 2} == numerical
    assert {c for c in classes if c.exit_status == 3} == semantic


def test_cli_maps_errors_in_one_clause_naming_only_the_base_class():
    tree = ast.parse(inspect.getsource(cli))
    handlers = [node for node in ast.walk(tree) if isinstance(node, ast.ExceptHandler)]
    assert len(handlers) == 1
    named = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    error_names = {name for name in vars(errors) if isinstance(getattr(errors, name), type)}
    assert named & error_names == {"PurifyKitError"}


@pytest.mark.parametrize(
    "argv, expected",
    [
        (["equiv", "a", "b", "--tol", "0.5"], RunConfig("equiv", inputs=("a", "b"), tol=0.5)),
        (
            ["purify", "e", "--kdim", "4", "--out", "o"],
            RunConfig("purify", inputs=("e",), dim_k=4, output="o"),
        ),
        (
            ["steer", "s", "t", "--tol", "0.25", "--out", "p"],
            RunConfig("steer", inputs=("s", "t"), tol=0.25, output="p"),
        ),
        (
            ["dynamics", "e", "--omega", "2", "--out", "r"],
            RunConfig("dynamics", inputs=("e",), omega=2.0, output="r"),
        ),
        (
            ["qubit-demo", "--q", "0.3", "--theta", "0.1", "--phase", "0.2", "--seed", "5"],
            RunConfig("qubit-demo", q=0.3, theta=0.1, phase=0.2, seed=5),
        ),
        (
            ["random-equiv", "r", "--count", "3", "--seed", "2", "--tol", "0.1", "--out", "d"],
            RunConfig("random-equiv", inputs=("r",), count=3, seed=2, tol=0.1, output="d"),
        ),
        (["qubit-demo"], RunConfig("qubit-demo")),
    ],
)
def test_every_flag_sets_its_run_config_field(argv, expected, monkeypatch):
    monkeypatch.delenv("PURIFYKIT_TOL", raising=False)
    assert cli.config_from_args(cli.build_parser().parse_args(argv)) == expected


def test_run_reports_an_unknown_command(capsys):
    assert run(RunConfig("bogus")) == 1
    assert capsys.readouterr().err == "error: unknown command 'bogus'\n"


def test_negative_dimension_exits_1_without_traceback(files, capsys):
    bad = files / "negative.dm"
    bad.write_text('{"dim": -2, "entries": [[0.5, 0], [0, 0], [0, 0], [0.5, 0]]}')
    assert main(["random-equiv", str(bad), "--count", "2"]) == 1
    assert capsys.readouterr().err == f"error: {bad}: dim must be a positive integer, got -2\n"


def test_a_density_matrix_whose_discarded_mass_exceeds_the_weight_slack_exits_1(files, capsys):
    # the three eigenvalues at or below the cutoff hold 2.7e-10 of the trace
    u = numerics.haar_unitary(6, np.random.default_rng(0))
    values = np.array([0.6, 0.4 - 2.7e-10, 9e-11, 9e-11, 9e-11, 0.0])
    entries = [[z.real, z.imag] for z in ((u * values) @ numerics.dag(u)).ravel().tolist()]
    path = files / "discarded.dm"
    path.write_text(json.dumps({"dim": 6, "entries": entries}))
    assert main(["random-equiv", str(path), "--count", "8"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: the spectral cutoff 1e-10 discards weight 2.700000")
    assert ": the kept weights sum to 0.99999999973" in err
    assert err.endswith(", must equal 1 within 1e-10\n")


@pytest.mark.parametrize("command", ["purify", "steer", "dynamics"])
def test_an_ensemble_whose_discarded_mass_exceeds_the_weight_slack_exits_1(
    files, command, capsys
):
    # the file's five weights sum to 1, but three of them fall at the cutoff
    states = numerics.haar_unitary(6, np.random.default_rng(0))[:5]
    path = files / "discarded.ens"
    fileio.write_ensemble(path, Ensemble(6, [0.6, 0.4 - 2.7e-10, 9e-11, 9e-11, 9e-11], states))
    argv = [command, str(path)] + ([str(path)] if command == "steer" else [])
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: the spectral cutoff 1e-10 discards weight 2.69999")
    assert err.endswith(": the kept weights sum to 0.9999999997300002, must equal 1 within 1e-10\n")


def test_steering_to_a_sub_cutoff_state_exits_3_at_the_support_check(files, capsys):
    # the third state weighs 5e-11: admitted, since the cutoff discards only
    # that, but outside the support of the spectral ensemble it leaves
    states = numerics.haar_unitary(6, np.random.default_rng(15))[:3]
    path = files / "sub_cutoff.ens"
    fileio.write_ensemble(path, Ensemble(6, [0.6, 0.4 - 5e-11, 5e-11], states))
    assert main(["steer", str(path), str(path)]) == 3
    assert "target state 2 sticks out of the support by" in capsys.readouterr().err


@pytest.mark.parametrize("kdim", ["1000000000000000000", "99999999999999999999"])
def test_purify_refuses_a_reference_numpy_cannot_address(files, kdim, capsys):
    # numpy refuses both grids before allocating, so this allocates nothing
    assert main(["purify", str(files / "mix01.ens"), "--kdim", kdim]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: dim_k {kdim} makes a 2 x {kdim} amplitude grid")
    assert err.count("\n") == 1


def test_random_equiv_refuses_a_count_the_weight_floor_rules_out(files, capsys):
    out = files / "drawn.ens"
    argv = ["random-equiv", str(files / "rho.dm"), "--count", "1000000", "--out", str(out)]
    assert main(argv) == 1
    assert capsys.readouterr().err == "error: 1000000 weights of at least 1e-06 cannot sum to 1\n"
    assert not out.exists()


def test_random_equiv_give_up_is_a_contract_failure(files, monkeypatch, capsys):
    # an identity mixer gives the states past the rank zero weight in every draw
    monkeypatch.setattr(numerics, "haar_unitary", lambda dim, rng: np.eye(dim, dtype=complex))
    assert main(["random-equiv", str(files / "rho.dm"), "--count", "3"]) == 2
    assert capsys.readouterr().err == (
        "numerical contract failure: "
        "64 draws gave no ensemble whose weights are all at least 1e-6\n"
    )


def test_steering_showcase_script_runs(tmp_path):
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(root, "src") + os.pathsep + env.get("PYTHONPATH", "")
    result = subprocess.run(
        [sys.executable, os.path.join(root, "scripts", "steering_showcase.py"), "--dim", "3"],
        capture_output=True,
        text=True,
        env=env,
        cwd=tmp_path,
    )
    assert result.returncode == 0, result.stderr
    assert "FAIL" not in result.stdout and "PASS" in result.stdout


# ---------------------------------------------------------------------------
# --out overwrites in place

OUT_COMMANDS = {
    "purify": lambda files: ["purify", str(files / "mix01.ens")],
    "steer": lambda files: ["steer", str(files / "mix01.ens"), str(files / "mixpm.ens")],
    "dynamics": lambda files: ["dynamics", str(files / "biased.ens")],
    "random-equiv": lambda files: ["random-equiv", str(files / "rho.dm"), "--count", "2"],
}


def test_the_dynamics_report_over_a_longer_file_leaves_exactly_the_new_bytes(files, capsys):
    out = files / "report.txt"
    out.write_bytes(b"x" * 100_000)
    assert main([*OUT_COMMANDS["dynamics"](files), "--out", str(out)]) == 0
    assert out.read_text() == capsys.readouterr().out


@pytest.mark.parametrize("command", OUT_COMMANDS)
def test_out_to_dev_null_exits_0_with_stdout_unchanged(files, command, capsys):
    argv = OUT_COMMANDS[command](files)
    assert main(argv) == 0
    expected = capsys.readouterr()
    assert main([*argv, "--out", os.devnull]) == 0
    assert capsys.readouterr() == expected


def test_out_to_dev_stdout_writes_the_document_into_a_pipe(files, capsys):
    env = dict(os.environ)
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    argv = OUT_COMMANDS["random-equiv"](files)
    document = files / "drawn.ens"
    assert main([*argv, "--out", str(document)]) == 0
    check_line = capsys.readouterr().out.encode()
    result = subprocess.run(
        [sys.executable, "-m", "purifykit", *argv, "--out", "/dev/stdout"],
        capture_output=True,
        env=env,
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout == document.read_bytes() + check_line


@pytest.mark.parametrize("command", OUT_COMMANDS)
@pytest.mark.parametrize("out", [".", "missing/out"])
def test_an_unwritable_out_exits_1_without_traceback(files, command, out, capsys):
    assert main([*OUT_COMMANDS[command](files), "--out", str(files / out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err


def test_out_is_never_opened_with_o_trunc(files, monkeypatch):
    flags = []
    real_open = os.open

    def recording_open(path, flag, *args, **kwargs):
        flags.append(flag)
        return real_open(path, flag, *args, **kwargs)

    monkeypatch.setattr(os, "open", recording_open)
    for command, make_argv in OUT_COMMANDS.items():
        out = files / f"{command}.out"
        for _ in range(2):  # create, then overwrite
            assert main([*make_argv(files), "--out", str(out)]) == 0
    assert len(flags) == 2 * len(OUT_COMMANDS)
    assert not any(flag & os.O_TRUNC for flag in flags)
