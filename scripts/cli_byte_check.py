#!/usr/bin/env python3
"""Hash every byte the command line writes, for comparing two checkouts.

    PYTHONPATH=src python scripts/cli_byte_check.py --out manifest.jsonl
    PYTHONPATH=src python scripts/cli_byte_check.py --golden --out tests/cli_golden.jsonl
    PYTHONPATH=src python scripts/cli_byte_check.py --golden --only 'smoke-*' \
        --out tests/cli_golden.jsonl
    python scripts/cli_byte_check.py --compare old.jsonl new.jsonl

Writes seeded input files with plain numpy and json, runs a fixed list of
``purifykit.cli.main`` commands over them (equivalence, steering,
purification, random draws, dynamics and the qubit demo, including exit
codes 1, 2 and 3) at each size and seed, and prints one JSON line per run:
its argv, its exit code, and the sha256 of its stdout, its stderr and each
file it wrote. The inputs do not depend on the library, so manifests made
against two checkouts (point PYTHONPATH at each ``src``) can be compared
with ``diff``; ``--keep DIR`` also stores the raw outputs, to see what a
differing hash hides.

``--golden`` writes, in place of the hashes, each output's text with every
number replaced by ``#`` and the numbers parsed out of it, so a test can
compare text exactly and numbers within a bound. A full-size output file
holds thousands of numbers; for it only the sha256 of its text and its
count of numbers are kept.

``--only PATTERN`` (shell-style, repeatable) rewrites in the existing
``--out`` file only the runs whose name matches, inserts a matched run the
file lacks in run order, and keeps every other line byte for byte, so a
change that moves or adds a few runs does not also record the host's
rounding drift in all the others. Only the sizes of the matched runs are
run.

``--compare OLD NEW`` runs nothing: it reads two manifests (or two golden
files) and prints, for each run whose stdout, stderr or files differ, the
run's name and the outputs that moved. When every moved output of a run
is golden text that matches and only its numbers moved, the line also
gives the largest absolute change among them, so a move at rounding level
shows as one; when the text of every moved output moved but its numbers
did not, the line ends in ``(numbers unchanged)``. It exits 1 when an
exit code differs or a run is in only one of them, else 0.
"""

from __future__ import annotations

import argparse
import fnmatch
import hashlib
import io
import json
import math
import os
import re
import sys
import tempfile
from contextlib import contextmanager, redirect_stderr, redirect_stdout
from pathlib import Path

import numpy as np

# dim and rank of the ensembles, the count of drawn states, the reference
# dimension for purify, and the rank of the low-rank dynamics input
SIZES = {
    "smoke": {"dim": 4, "rank": 2, "count": 3, "kdim": 4, "low_rank": 2},
    "full": {"dim": 32, "rank": 16, "count": 24, "kdim": 64, "low_rank": 4},
}
SEEDS = (1, 2, 3)
NUMBER = re.compile(r"[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?")


def _haar_unitary(rng: np.random.Generator, n: int) -> np.ndarray:
    z = (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))) / math.sqrt(2.0)
    q, r = np.linalg.qr(z)
    diag = np.diagonal(r)
    return q * (diag / np.abs(diag))


def _mixed_state(rng: np.random.Generator, dim: int, rank: int):
    """A spectrum bounded away from zero, and orthonormal eigenvectors as rows."""
    weights = rng.uniform(0.5, 1.5, rank)
    weights /= weights.sum()
    return weights, _haar_unitary(rng, dim)[:, :rank].T


def _density_of(weights, states) -> np.ndarray:
    rho = (states.T * weights) @ states.conj()
    return (rho + rho.conj().T) / 2.0


def _equivalent(rng: np.random.Generator, weights, vectors, count: int):
    """``count`` states sharing the density matrix, mixed by a Haar unitary."""
    mixer = _haar_unitary(rng, count)[: weights.size]
    unnormalized = (np.sqrt(weights)[:, None] * mixer).T @ vectors
    probs = np.sum(np.abs(unnormalized) ** 2, axis=1)
    return probs / probs.sum(), unnormalized / np.sqrt(probs)[:, None]


def _pairs(values) -> list:
    return [[float(z.real), float(z.imag)] for z in np.asarray(values, dtype=complex).ravel()]


def _ensemble_doc(dim: int, weights, states) -> dict:
    return {
        "dim": dim,
        "weights": [float(w) for w in weights],
        "states": [_pairs(s) for s in states],
    }


def write_inputs(seed: int, dim: int, rank: int, count: int, low_rank: int, **_) -> dict:
    """Write the input files into the current directory; returns the qubit-demo angles."""
    rng = np.random.default_rng(seed)
    weights, vectors = _mixed_state(rng, dim, rank)
    source = _ensemble_doc(dim, *_equivalent(rng, weights, vectors, count))
    docs = {
        "rho.dm": {"dim": dim, "entries": _pairs(_density_of(weights, vectors))},
        "source.ens": source,
        "target.ens": _ensemble_doc(dim, *_equivalent(rng, weights, vectors, count)),
        "other.ens": _ensemble_doc(
            dim, *_equivalent(rng, *_mixed_state(rng, dim, rank), count)
        ),
        "missing.ens": {"dim": dim, "states": source["states"]},
        "low.ens": _ensemble_doc(dim, *_mixed_state(rng, dim, low_rank)),
    }
    for name, doc in docs.items():
        Path(name).write_text(json.dumps(doc), encoding="utf-8")
    q, theta, phase = rng.uniform(0.2, 0.8), rng.uniform(0.1, 3.0), rng.uniform(0.0, 3.0)
    write_disagreement(seed)
    return {"q": q, "theta": theta, "phase": phase}


def write_disagreement(seed: int) -> None:
    """Write the pair that ``equiv`` accepts and ``steer`` refuses, from a stream of its own.

    The source has the spectrum {0.5, 0.3, 0.2, 1e-7} (normalized) on d=6;
    the target is an 8-state equivalent ensemble with 1e-9 of weight moved
    from state 0 to state 1. The density matrices agree within 1e-9, but
    the steering ratios sqrt(p_j / d_i) lift the isometry residual above
    its 1e-9 tolerance.
    """
    rng = np.random.default_rng([seed, 1])
    weights = np.array([0.5, 0.3, 0.2, 1e-7])
    weights /= weights.sum()
    vectors = _haar_unitary(rng, 6)[:, :4].T
    probs, states = _equivalent(rng, weights, vectors, 8)
    probs[0] -= 1e-9
    probs[1] += 1e-9
    for name, doc in {
        "gap_source.ens": _ensemble_doc(6, weights, vectors),
        "gap_target.ens": _ensemble_doc(6, probs, states),
    }.items():
        Path(name).write_text(json.dumps(doc), encoding="utf-8")


def commands(seed: int, count: int, kdim: int, angles: dict, **_) -> list[list[str]]:
    """The benchmark's cli-files cycle, runs that write more of each output kind,
    then the pair of :func:`write_disagreement` through ``equiv`` and ``steer``."""
    demo = ["--q", repr(angles["q"]), "--theta", repr(angles["theta"]),
            "--phase", repr(angles["phase"])]
    return [
        ["random-equiv", "rho.dm", "--count", str(count), "--seed", str(seed),
         "--out", "drawn.ens"],
        ["equiv", "source.ens", "drawn.ens"],
        ["equiv", "source.ens", "other.ens"],
        ["equiv", "source.ens", "missing.ens"],
        ["steer", "source.ens", "target.ens", "--out", "plan.json"],
        ["purify", "source.ens", "--kdim", str(kdim), "--out", "psi.state"],
        ["dynamics", "low.ens"],
        ["qubit-demo", *demo, "--seed", str(seed)],
        ["random-equiv", "rho.dm", "--count", str(2 * count), "--seed", str(seed + 10),
         "--out", "drawn2.ens"],
        ["equiv", "target.ens", "drawn2.ens"],
        ["steer", "target.ens", "source.ens", "--out", "plan_ts.json"],
        ["steer", "source.ens", "drawn2.ens", "--out", "plan_sd.json"],
        ["steer", "low.ens", "low.ens", "--out", "plan_low.json"],
        ["steer", "source.ens", "other.ens", "--out", "plan_other.json"],
        ["purify", "target.ens", "--out", "psi_t.state"],
        ["purify", "low.ens", "--kdim", str(kdim), "--out", "psi_low.state"],
        ["dynamics", "low.ens", "--omega", "2.5", "--out", "dynamics.txt"],
        ["qubit-demo"],
        ["qubit-demo", "--q", "0.5", "--theta", "1.0", "--phase", "0.0", "--seed", str(seed)],
        ["equiv", "gap_source.ens", "gap_target.ens"],
        ["steer", "gap_source.ens", "gap_target.ens"],
    ]


def _run_name(size: str, seed: int, number: int) -> str:
    return f"{size}-seed{seed}-{number:02d}"


def run_names(sizes=tuple(SIZES)) -> list[str]:
    """The name of every run, in run order."""
    angles = {"q": 0.0, "theta": 0.0, "phase": 0.0}  # the count of commands does not use them
    return [
        _run_name(size, seed, number)
        for size in sizes
        for seed in SEEDS
        for number in range(len(commands(seed, angles=angles, **SIZES[size])))
    ]


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


@contextmanager
def _inside(path: Path):
    previous = os.getcwd()
    os.chdir(path)
    try:
        yield
    finally:
        os.chdir(previous)


def _run(main, argv: list[str]) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        status = main(argv)
    return status, out.getvalue(), err.getvalue()


def runs(sizes=tuple(SIZES), keep: Path | None = None):
    """Run every command at each size and seed, in a fresh directory each.

    Yields the run name, its size, argv, exit status, stdout, stderr and
    the bytes of the file it wrote, by name.
    """
    from purifykit.cli import main

    for size in sizes:
        for seed in SEEDS:
            params = SIZES[size]
            with tempfile.TemporaryDirectory() as work, _inside(Path(work)):
                angles = write_inputs(seed, **params)
                for number, argv in enumerate(commands(seed, angles=angles, **params)):
                    name = _run_name(size, seed, number)
                    status, out, err = _run(main, argv)
                    written = argv[argv.index("--out") + 1] if "--out" in argv else None
                    files = {}
                    if written is not None and Path(written).exists():
                        files[written] = Path(written).read_bytes()
                    if keep is not None:
                        (keep / f"{name}.stdout").write_text(out, encoding="utf-8")
                        (keep / f"{name}.stderr").write_text(err, encoding="utf-8")
                        for path, data in files.items():
                            (keep / f"{name}.{path}").write_bytes(data)
                    yield name, size, argv, status, out, err, files


def manifest(sizes=tuple(SIZES), keep: Path | None = None) -> list[dict]:
    """One record of hashes per run."""
    return [
        {
            "run": name,
            "argv": argv,
            "exit": status,
            "stdout": _sha256(out.encode()),
            "stderr": _sha256(err.encode()),
            "files": {path: _sha256(data) for path, data in files.items()},
        }
        for name, _, argv, status, out, err, files in runs(sizes, keep)
    ]


def split_numbers(text: str) -> dict:
    """The text with each number replaced by ``#``, and the numbers in order."""
    return {"text": NUMBER.sub("#", text), "numbers": [float(x) for x in NUMBER.findall(text)]}


def golden(sizes=tuple(SIZES), keep: Path | None = None) -> list[dict]:
    """One record of text and numbers per run; full-size files as text hash and number count."""
    records = []
    for name, size, argv, status, out, err, files in runs(sizes, keep):
        parsed = {path: split_numbers(data.decode("utf-8")) for path, data in files.items()}
        if size != "smoke":
            parsed = {
                path: {"text_sha256": _sha256(doc["text"].encode()), "count": len(doc["numbers"])}
                for path, doc in parsed.items()
            }
        records.append({
            "run": name,
            "argv": argv,
            "exit": status,
            "stdout": split_numbers(out),
            "stderr": split_numbers(err),
            "files": parsed,
        })
    return records


def splice(lines: list[str], records: list[dict], order: list[str]) -> list[str]:
    """``lines`` with the line of each run in ``records`` replaced by its record.

    A run of ``records`` that ``lines`` lack goes after the last line of a
    run before it in ``order``, the run order.
    """
    fresh = {record["run"]: json.dumps(record, sort_keys=True) for record in records}
    names = [json.loads(line)["run"] for line in lines]
    spliced = [fresh.get(name, line) for name, line in zip(names, lines)]
    position = {name: index for index, name in enumerate(order)}
    for name in sorted(fresh.keys() - set(names), key=position.__getitem__):
        earlier = [
            i for i, held in enumerate(names) if position.get(held, math.inf) < position[name]
        ]
        at = earlier[-1] + 1 if earlier else 0
        names.insert(at, name)
        spliced.insert(at, fresh[name])
    return spliced


def number_change(was, now) -> float | None:
    """The largest absolute change between the numbers of two golden outputs
    whose texts match, else None."""
    if not all(isinstance(doc, dict) and "numbers" in doc for doc in (was, now)):
        return None
    if was["text"] != now["text"]:
        return None
    return max((abs(a - b) for a, b in zip(was["numbers"], now["numbers"])), default=0.0)


def same_numbers(was, now) -> bool:
    """Whether two golden outputs hold the same list of numbers."""
    return all(isinstance(doc, dict) and "numbers" in doc for doc in (was, now)) and (
        was["numbers"] == now["numbers"]
    )


def _outputs(record: dict) -> dict:
    return {"stdout": record["stdout"], "stderr": record["stderr"], **record["files"]}


def compare(old: list[dict], new: list[dict]) -> tuple[list[str], bool]:
    """One line per run whose outputs differ between the two record lists,
    naming the outputs that moved (and the largest number change, when only
    numbers moved, or that no number moved), and whether every run and exit
    code agree."""
    before = {record["run"]: record for record in old}
    after = {record["run"]: record for record in new}
    lines, agree = [], before.keys() == after.keys()
    for name in sorted(before.keys() ^ after.keys()):
        lines.append(f"{name}: only in {'OLD' if name in before else 'NEW'}")
    for name in (name for name in before if name in after):
        was, now = before[name], after[name]
        moved = [key for key in ("exit", "stdout", "stderr") if was[key] != now[key]]
        moved += sorted(
            path for path in was["files"].keys() | now["files"].keys()
            if was["files"].get(path) != now["files"].get(path)
        )
        if moved:
            line = f"{name} {' '.join(was['argv'])}: {', '.join(moved)}"
            pairs = [(_outputs(was).get(key), _outputs(now).get(key)) for key in moved]
            changes = [number_change(*pair) for pair in pairs]
            if None not in changes:
                line += f" (numbers only, largest change {max(changes):.3g})"
            elif all(same_numbers(*pair) for pair in pairs):
                line += " (numbers unchanged)"
            lines.append(line)
        agree = agree and was["exit"] == now["exit"]
    return lines, agree


def _records(path: str) -> list[dict]:
    return [json.loads(line) for line in Path(path).read_text(encoding="utf-8").splitlines()]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--size", choices=[*SIZES, "both"], default="both")
    parser.add_argument("--out", help="manifest path (default: stdout)")
    parser.add_argument("--keep", help="directory to store every raw output in")
    parser.add_argument(
        "--golden", action="store_true", help="record text and numbers in place of hashes"
    )
    parser.add_argument(
        "--only",
        action="append",
        metavar="PATTERN",
        help="rewrite only the matching runs of the existing --out file, inserting "
        "those it lacks (repeatable)",
    )
    parser.add_argument(
        "--compare",
        nargs=2,
        metavar=("OLD", "NEW"),
        help="name the runs whose outputs differ between two manifests; exit 1 if an "
        "exit code differs",
    )
    args = parser.parse_args(argv)
    if args.compare:
        lines, agree = compare(*map(_records, args.compare))
        for line in lines:
            print(line)
        print(f"{len(lines)} runs differ", file=sys.stderr)
        return 0 if agree else 1

    keep = None
    if args.keep:
        keep = Path(args.keep).resolve()
        keep.mkdir(parents=True, exist_ok=True)
    sizes = tuple(SIZES) if args.size == "both" else (args.size,)
    if args.only:
        if not args.out:
            parser.error("--only rewrites runs of an --out file")
        kept = Path(args.out).read_text(encoding="utf-8").splitlines()
        order = run_names()
        matched = set()
        for pattern in args.only:
            hits = fnmatch.filter(order, pattern)
            if not hits:
                parser.error(f"--only {pattern!r} matches no run")
            matched.update(hits)
        needed = tuple(s for s in SIZES if any(name.startswith(f"{s}-") for name in matched))
        if not set(needed) <= set(sizes):
            parser.error(f"--size {args.size} leaves out runs that --only matches")
        sizes = needed
    records = (golden if args.golden else manifest)(sizes, keep=keep)
    lines = [json.dumps(r, sort_keys=True) for r in records]
    if args.only:
        lines = splice(kept, [r for r in records if r["run"] in matched], order)
    text = "\n".join(lines) + "\n"
    if args.out:
        Path(args.out).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)
    import purifykit

    print(f"{len(lines)} runs against {Path(purifykit.__file__).parent}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
