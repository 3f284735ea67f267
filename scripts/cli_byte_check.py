#!/usr/bin/env python3
"""Hash every byte the command line writes, for comparing two checkouts.

    PYTHONPATH=src python scripts/cli_byte_check.py --out manifest.jsonl
    PYTHONPATH=src python scripts/cli_byte_check.py --golden --out tests/cli_golden.jsonl
    PYTHONPATH=src python scripts/cli_byte_check.py --golden --only 'smoke-*' \
        --out tests/cli_golden.jsonl

Writes seeded input files with plain numpy and json, runs a fixed list of
``purifykit.cli.main`` commands over them (equivalence, steering,
purification, random draws, dynamics and the qubit demo, including exit
codes 1 and 3) at each size and seed, and prints one JSON line per run:
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
``--out`` file only the runs whose name matches, and keeps every other line
byte for byte, so a change that moves a few runs does not also record the
host's rounding drift in all the others. Only the sizes of the matched
runs are run.
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
    return {"q": q, "theta": theta, "phase": phase}


def commands(seed: int, count: int, kdim: int, angles: dict, **_) -> list[list[str]]:
    """The benchmark's cli-files cycle, then runs that write more of each output kind."""
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
                    name = f"{size}-seed{seed}-{number:02d}"
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


def splice(lines: list[str], records: list[dict]) -> list[str]:
    """``lines`` with the line of each run in ``records`` replaced by its record."""
    fresh = {record["run"]: json.dumps(record, sort_keys=True) for record in records}
    return [fresh.get(json.loads(line)["run"], line) for line in lines]


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
        help="rewrite only the matching runs of the existing --out file (repeatable)",
    )
    args = parser.parse_args(argv)

    keep = None
    if args.keep:
        keep = Path(args.keep).resolve()
        keep.mkdir(parents=True, exist_ok=True)
    sizes = tuple(SIZES) if args.size == "both" else (args.size,)
    if args.only:
        if not args.out:
            parser.error("--only rewrites runs of an --out file")
        kept = Path(args.out).read_text(encoding="utf-8").splitlines()
        names = [json.loads(line)["run"] for line in kept]
        matched = set()
        for pattern in args.only:
            hits = fnmatch.filter(names, pattern)
            if not hits:
                parser.error(f"--only {pattern!r} matches no run of {args.out}")
            matched.update(hits)
        needed = tuple(s for s in SIZES if any(name.startswith(f"{s}-") for name in matched))
        if not set(needed) <= set(sizes):
            parser.error(f"--size {args.size} leaves out runs that --only matches")
        sizes = needed
    records = (golden if args.golden else manifest)(sizes, keep=keep)
    lines = [json.dumps(r, sort_keys=True) for r in records]
    if args.only:
        lines = splice(kept, [r for r in records if r["run"] in matched])
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
