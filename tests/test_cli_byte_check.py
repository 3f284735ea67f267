"""The CLI byte check script: one well-formed record per run, repeated exactly,
and every run's output against the committed golden file.

The golden file is written by

    PYTHONPATH=src python scripts/cli_byte_check.py --golden --out tests/cli_golden.jsonl

A change that moves it regenerates it with that command, or only the runs
it moves with ``--only PATTERN``, and lists each moved field in CHANGES.md.
"""

import importlib.util
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SCRIPT = ROOT / "scripts" / "cli_byte_check.py"
SHA256 = re.compile(r"[0-9a-f]{64}")
GOLDEN = ROOT / "tests" / "cli_golden.jsonl"
# A printed number may move by rounding across BLAS builds and evaluation
# orders, |got - golden| <= ABS_BOUND + REL_BOUND * |golden|, and by no more.
# Never widen these to pass a change.
ABS_BOUND = 1e-12
REL_BOUND = 1e-9


def load_script():
    spec = importlib.util.spec_from_file_location("cli_byte_check", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def expected_exit(argv):
    if argv[-1] == "missing.ens":
        return 1  # the file has no weights
    if argv[1:3] == ["source.ens", "other.ens"]:
        return 3  # other.ens has another density matrix
    if argv[:3] == ["steer", "gap_source.ens", "gap_target.ens"]:
        return 2  # equiv accepts the pair, but its isometry residual exceeds TOL.isometry
    return 0


def test_smoke_manifest_has_one_record_per_run_and_repeats_exactly(tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src") + os.pathsep + env.get("PYTHONPATH", "")
    manifest = tmp_path / "manifest.jsonl"
    result = subprocess.run(
        [sys.executable, str(SCRIPT), "--size", "smoke", "--out", str(manifest)],
        capture_output=True,
        text=True,
        env=env,
        cwd=tmp_path,
    )
    assert result.returncode == 0, result.stderr
    lines = manifest.read_text(encoding="utf-8").splitlines()

    script = load_script()
    runs_per_seed = len(script.commands(1, 3, 4, {"q": 0.5, "theta": 1.0, "phase": 0.0}))
    assert len(lines) == len(script.SEEDS) * runs_per_seed
    records = [json.loads(line) for line in lines]
    assert len({r["run"] for r in records}) == len(records)
    for record in records:
        assert set(record) == {"run", "argv", "exit", "stdout", "stderr", "files"}
        argv = record["argv"]
        assert all(isinstance(a, str) and not os.path.isabs(a) for a in argv)
        assert record["exit"] == expected_exit(argv)
        assert SHA256.fullmatch(record["stdout"]) and SHA256.fullmatch(record["stderr"])
        # the runs exiting 1 or 3 fail before they write their --out file
        writes = "--out" in argv and record["exit"] == 0
        assert list(record["files"]) == ([argv[argv.index("--out") + 1]] if writes else [])
        assert all(SHA256.fullmatch(digest) for digest in record["files"].values())

    # a second, in-process run over fresh directories gives the same bytes
    cwd = os.getcwd()
    again = [json.dumps(r, sort_keys=True) for r in script.manifest(("smoke",))]
    assert again == lines
    assert os.getcwd() == cwd


def numbers_match(got, golden):
    return len(got) == len(golden) and all(
        abs(g - v) <= ABS_BOUND + REL_BOUND * abs(v) for g, v in zip(got, golden)
    )


def assert_record_matches(record, expected):
    run = expected["run"]
    assert (record["argv"], record["exit"]) == (expected["argv"], expected["exit"]), run
    outputs = {"stdout": record["stdout"], "stderr": record["stderr"], **record["files"]}
    wanted = {"stdout": expected["stdout"], "stderr": expected["stderr"], **expected["files"]}
    assert outputs.keys() == wanted.keys(), run
    for name, doc in wanted.items():
        # text and verdict words exactly; a full-size file as text hash and number count
        rest = {key: value for key, value in outputs[name].items() if key != "numbers"}
        assert rest == {key: value for key, value in doc.items() if key != "numbers"}, (run, name)
        if "numbers" in doc:
            assert numbers_match(outputs[name]["numbers"], doc["numbers"]), (run, name)


def test_cli_output_matches_the_golden_file():
    golden = [json.loads(line) for line in GOLDEN.read_text(encoding="utf-8").splitlines()]
    got = load_script().golden()
    assert [r["run"] for r in got] == [r["run"] for r in golden]
    for record, expected in zip(got, golden):
        assert_record_matches(record, expected)


def test_only_rewrites_the_matched_runs_and_keeps_every_other_line(tmp_path):
    committed = GOLDEN.read_text(encoding="utf-8").splitlines()
    # stale smoke records, so a line left in place shows, and three smoke
    # runs left out, first and last of a seed among them, to be inserted
    dropped = {"smoke-seed1-00", "smoke-seed2-07", "smoke-seed3-20"}
    stale = {
        json.loads(line)["run"]: json.dumps({**json.loads(line), "exit": -1}, sort_keys=True)
        if json.loads(line)["run"].startswith("smoke-") else line
        for line in committed
    }
    path = tmp_path / "golden.jsonl"
    kept = [line for run, line in stale.items() if run not in dropped]
    path.write_text("\n".join(kept) + "\n", encoding="utf-8")
    script = load_script()
    assert script.main(["--golden", "--only", "smoke-*", "--out", str(path)]) == 0
    spliced = path.read_text(encoding="utf-8").splitlines()
    assert len(spliced) == len(committed)
    for line, expected in zip(spliced, committed):
        record, wanted = json.loads(line), json.loads(expected)
        assert record["run"] == wanted["run"]
        if wanted["run"].startswith("smoke-"):
            assert_record_matches(record, wanted)
        else:
            assert line == stale[wanted["run"]]
    # a pattern that names no run is refused before anything is written
    with pytest.raises(SystemExit):
        script.main(["--golden", "--only", "smoke-seed9-*", "--out", str(path)])
    assert path.read_text(encoding="utf-8").splitlines() == spliced


def test_splice_inserts_a_missing_run_after_the_runs_before_it():
    script = load_script()
    order = ["a", "b", "c", "d"]
    lines = [json.dumps({"run": run}) for run in ("b", "d", "stray")]
    records = [{"run": "a", "n": 1}, {"run": "c", "n": 2}, {"run": "d", "n": 3}]
    spliced = [json.loads(line) for line in script.splice(lines, records, order)]
    assert spliced == [
        {"run": "a", "n": 1}, {"run": "b"}, {"run": "c", "n": 2}, {"run": "d", "n": 3},
        {"run": "stray"},
    ]


def test_compare_names_each_moved_run_and_fails_on_a_changed_exit_code(tmp_path, capsys):
    script = load_script()

    def record(run, exit=0, stdout="a", stderr="e", files=None):
        return {"run": run, "argv": ["steer", run], "exit": exit, "stdout": stdout,
                "stderr": stderr, "files": files or {}}

    old = [record("r1"), record("r2", files={"plan.json": "x"}), record("r3"), record("r4")]
    new = [record("r1"), record("r2", stdout="b", files={"plan.json": "y"}), record("r3"),
           record("r4", stderr="f")]
    old_path, new_path = tmp_path / "old.jsonl", tmp_path / "new.jsonl"
    for path, records in ((old_path, old), (new_path, new)):
        path.write_text("".join(json.dumps(r) + "\n" for r in records), encoding="utf-8")
    assert script.main(["--compare", str(old_path), str(new_path)]) == 0
    assert capsys.readouterr().out == "r2 steer r2: stdout, plan.json\nr4 steer r4: stderr\n"

    new[2]["exit"] = 3
    new_path.write_text("".join(json.dumps(r) + "\n" for r in new[:3]), encoding="utf-8")
    assert script.main(["--compare", str(old_path), str(new_path)]) == 1
    assert capsys.readouterr().out == (
        "r4: only in OLD\nr2 steer r2: stdout, plan.json\nr3 steer r3: exit\n"
    )


def test_compare_gives_the_largest_change_when_only_numbers_moved(tmp_path, capsys):
    script = load_script()

    def golden(run, numbers, text="residual # PASS", files=None):
        doc = {"text": text, "numbers": numbers}
        return {"run": run, "argv": ["steer", run], "exit": 0, "stdout": doc,
                "stderr": {"text": "", "numbers": []}, "files": files or {}}

    plan = {"text_sha256": "a", "count": 3}
    old = [golden("r1", [1e-16, 2.0]), golden("r2", [1e-16]), golden("r3", [1e-16]),
           golden("r4", [1e-16], files={"plan.json": plan})]
    new = [golden("r1", [3e-16, 2.0 + 4e-16]), golden("r2", [1e-16], text="residual # FAIL"),
           golden("r3", [1e-16]), golden("r4", [2e-16], files={"plan.json": {**plan, "count": 4}})]
    old_path, new_path = tmp_path / "old.jsonl", tmp_path / "new.jsonl"
    for path, records in ((old_path, old), (new_path, new)):
        path.write_text("".join(json.dumps(r) + "\n" for r in records), encoding="utf-8")
    assert script.main(["--compare", str(old_path), str(new_path)]) == 0
    # r2's text moved and r4's file is kept as a hash, so neither gets a change
    assert capsys.readouterr().out == (
        "r1 steer r1: stdout (numbers only, largest change 4.44e-16)\n"
        "r2 steer r2: stdout (numbers unchanged)\n"
        "r4 steer r4: stdout, plan.json\n"
    )


def test_compare_notes_a_run_whose_text_moved_and_whose_numbers_did_not(tmp_path, capsys):
    script = load_script()

    def golden(run, text, numbers, stdout_numbers=(1.0,)):
        return {"run": run, "argv": ["steer", run], "exit": 0,
                "stdout": {"text": "residual #", "numbers": list(stdout_numbers)},
                "stderr": {"text": "", "numbers": []},
                "files": {"plan.json": {"text": text, "numbers": numbers}}}

    spaced, compact = '{\n  "coeffs": [#, #]\n}\n', '{"coeffs":[#,#]}\n'
    old = [golden("r1", spaced, [0.5, -0.0]), golden("r2", spaced, [0.5, 1.0]),
           golden("r3", spaced, [0.5, 1.0])]
    new = [golden("r1", compact, [0.5, -0.0]), golden("r2", compact, [0.5, 2.0]),
           golden("r3", compact, [0.5, 1.0], stdout_numbers=(2.0,))]
    old_path, new_path = tmp_path / "old.jsonl", tmp_path / "new.jsonl"
    for path, records in ((old_path, old), (new_path, new)):
        path.write_text("".join(json.dumps(r) + "\n" for r in records), encoding="utf-8")
    assert script.main(["--compare", str(old_path), str(new_path)]) == 0
    # r2's file moved a number, r3's stdout moved one: neither keeps every number
    assert capsys.readouterr().out == (
        "r1 steer r1: plan.json (numbers unchanged)\n"
        "r2 steer r2: plan.json\n"
        "r3 steer r3: stdout, plan.json\n"
    )
