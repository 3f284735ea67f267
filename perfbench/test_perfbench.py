"""Tests of the benchmark itself: oracles, negative controls, tracer, contract.

Run from the repository root with ``python3 -m pytest perfbench -q``.
All workloads run at the "smoke" size, so the whole file takes seconds.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import bench
import tracer
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
CLI_EQUIV_MISS, CLI_STEER = 2, 4  # positions in the cli-files command cycle


def smoke(name, tmp_path, seed=5):
    return workloads.make(name, seed, "smoke", tmp_path / "work")


def test_workloads_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert spec["paths"] == ["perfbench"]


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_every_op_passes_its_oracle(name, tmp_path):
    workload = smoke(name, tmp_path)
    try:
        stats = bench.measure(workload, 0)
        stats = stats + bench.measure(workload, 0)  # second cycle compares output bytes
    finally:
        workload.close()
    assert stats.failed == 0
    assert stats.attempted == 2 * workload.cycle


def test_cli_oracle_rejects_non_unitary_plan(tmp_path):
    workload = smoke("cli-files", tmp_path)
    try:
        result = workload.run(CLI_STEER)
        plan = Path(workload.commands[CLI_STEER][2])
        doc = json.loads(plan.read_text())
        doc["unitary"][0][0][0] += 1e-6
        plan.write_text(json.dumps(doc))
        # the first write is the byte reference, so only the unitarity check can fail here
        assert not workload.check(CLI_STEER, result)
    finally:
        workload.close()


class Corrupting:
    """A workload whose op ``bad`` hands its check a corrupted result."""

    def __init__(self, inner, bad, corrupt):
        self.inner, self.bad, self.corrupt = inner, bad, corrupt
        self.cycle = inner.cycle

    def run(self, i):
        result = self.inner.run(i)
        return self.corrupt(self.inner, result) if i == self.bad else result

    def check(self, i, result):
        return self.inner.check(i, result)


def _perturb_weight(workload, result):
    result[1][0].probability += 1e-6
    return result


def _drop_outcome(workload, result):
    plan, outcomes, report = result
    return plan, outcomes[1:], report


def _perturb_amplitude(workload, result):
    result[1].amplitudes[0] += 1e-6
    return result


def _wrong_exit_code(workload, result):
    return result[0] + 1, result[1]


def _fail_line(workload, result):
    return result[0], result[1] + "\nresidual: FAIL"


def _change_plan_bytes(workload, result):
    plan = Path(workload.commands[CLI_STEER][2])
    plan.write_text(plan.read_text() + " ")
    return result


@pytest.mark.parametrize(
    "name, bad, corrupt",
    [
        ("steer-wide", 1, _perturb_weight),
        ("steer-wide", 1, _drop_outcome),
        ("dynamics-verify", 1, _perturb_amplitude),
        ("cli-files", CLI_EQUIV_MISS, _wrong_exit_code),
        ("cli-files", CLI_EQUIV_MISS, _fail_line),
        ("cli-files", CLI_STEER, _change_plan_bytes),
    ],
)
def test_negative_control_makes_fail_ratio_nonzero(name, bad, corrupt, tmp_path):
    workload = smoke(name, tmp_path)
    try:
        assert bench.measure(workload, 0).failed == 0  # cli-files: records output bytes
        stats = bench.measure(Corrupting(workload, bad, corrupt), 0)
    finally:
        workload.close()
    assert stats.failed == 1
    assert bench.end_to_end(stats, workload.cycle)["ok_ratio"] == 1.0 - 1 / workload.cycle


def test_cli_commands_expect_their_exit_codes(tmp_path):
    workload = smoke("cli-files", tmp_path)
    try:
        commands = [(argv[0], expected) for argv, expected, _ in workload.commands]
    finally:
        workload.close()
    assert commands[CLI_EQUIV_MISS] == ("equiv", 3)
    assert commands[CLI_STEER] == ("steer", 0)
    assert [expected for _, expected in commands] == [0, 0, 3, 1, 0, 0, 0, 0]


def test_tracer_wraps_every_binding():
    import purifykit
    from purifykit import cli, ensembles, numerics, purification, qubit_gates

    originals = {
        "are_equivalent": ensembles.are_equivalent,
        "prepare_ensemble": purification.prepare_ensemble,
        "purify": purification.purify,
        "validator": ensembles.DensityMatrix.__post_init__,
        "completion": numerics.gram_schmidt_complete,
    }
    targets = [
        vars(getattr(sys.modules[f"purifykit.{m}"], a.split(".")[0]))[a.split(".")[1]]
        if "." in a
        else getattr(sys.modules[f"purifykit.{m}"], a)
        for m, a in tracer.TARGETS
    ]
    t = tracer.Tracer()
    bound = t.install()
    try:
        package = [m for name, m in sys.modules.items() if name.split(".")[0] == "purifykit"]
        left = [
            f"{module.__name__}.{key}"
            for module in package
            for key, value in vars(module).items()
            if any(value is target for target in targets)
        ]
        assert left == []
        for binding in (
            purification.are_equivalent,
            cli.prepare_ensemble,
            cli.purify,
            qubit_gates.prepare_ensemble,
            purifykit.prepare_ensemble,
            ensembles.DensityMatrix.__post_init__,
            purification.SteeringPlan.__post_init__,
            purifykit.gram_schmidt_complete,
        ):
            assert hasattr(binding, "__wrapped__")
        assert bound["ensembles.are_equivalent"] == 3  # ensembles, purification, package
        assert bound["purification.prepare_ensemble"] == 4  # + cli, qubit_gates
        assert set(bound) == {tracer.span_name(m, a) for m, a in tracer.TARGETS}
    finally:
        t.uninstall()
    assert purification.are_equivalent is originals["are_equivalent"]
    assert cli.prepare_ensemble is originals["prepare_ensemble"]
    assert cli.purify is originals["purify"]
    assert ensembles.DensityMatrix.__post_init__ is originals["validator"]
    assert purifykit.gram_schmidt_complete is originals["completion"]


def test_self_time_subtracts_children():
    t = tracer.Tracer()
    t.spans = [["op", 0.0, 10.0, -1, 0], ["a", 1.0, 6.0, 0, 0], ["b", 2.0, 3.0, 1, 0]]
    summary = t.summary()
    assert summary["ops"] == 1
    assert summary["self_s"] == {"op": 5.0, "a": 4.0, "b": 1.0}


def test_traced_counts_repeat_exactly(tmp_path):
    runs = []
    for attempt in range(2):
        workload = smoke("dynamics-verify", tmp_path, seed=attempt)
        metrics, stats, _ = bench.traced_run(workload, 0, tmp_path / f"spans{attempt}.jsonl")
        assert stats.failed == 0
        assert set(metrics) == set(bench.PER_LAYER)
        runs.append({k: v for k, v in metrics.items() if k.endswith(".calls_per_op")})
    assert runs[0] == runs[1]
    assert runs[0]["numerics.hermitian_eig.calls_per_op"] == 4
    assert runs[0]["dynamics.commutator_max.calls_per_op"] == 3
    assert runs[0]["dynamics.evolution_numeric.calls_per_op"] == 3
    spans = [json.loads(line) for line in (tmp_path / "spans0.jsonl").read_text().splitlines()]
    assert {s["name"] for s in spans} >= {"op", "dynamics.build_model"}


def _run(args, cwd):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=120,
    )


@pytest.mark.parametrize("trace, table", [("0", bench.END_TO_END), ("1", bench.PER_LAYER)])
def test_run_prints_contract_result(trace, table):
    proc = _run(
        ["--workload", "cli-files", "--seed", "3", "--seconds", "0.2", "--trace", trace,
         "--size", "smoke"],
        ROOT,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert {k: m["unit"] for k, m in result["metrics"].items()} == table


def test_run_fails_without_the_library(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns(".*", "__pycache__"))
    proc = _run(["--workload", "steer-wide", "--seed", "1", "--seconds", "1", "--trace", "0"],
                tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""
