"""Benchmark entry point for purifykit.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. Each run starts fresh interpreters with
the BLAS thread count pinned: with ``--trace 0``, one that sets up and
measures the end-to-end metrics, with SETUP_SAMPLES - 1 more that only
set up started half before and half after it; ``setup_s`` is the
fastest of these set-up times. With ``--trace 1``, one process measures
the per-layer metrics. It prints the environment and every metric by
name and unit, keeps a record under ``perfbench/.out/``, and ends with
one line of JSON: correct, attempted, failed, metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_SAMPLES = 15
RUN_BUDGET_S = 170.0  # every child of one run must end within this
BLAS_THREADS = 1
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


class ChildFailed(RuntimeError):
    pass


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    threads = str(min(BLAS_THREADS, os.cpu_count() or 1))
    env.update({var: threads for var in THREAD_VARS})
    return env


def spawn(args, setup_only: bool, deadline: float) -> tuple[float, list[str]]:
    """Run one bench.py process; returns its time to READY and its other lines."""
    cmd = [
        sys.executable, str(HERE / "bench.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace), "--size", args.size,
    ]
    if setup_only:
        cmd.append("--setup-only")
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, env=child_env(), cwd=ROOT)
    timer = threading.Timer(max(deadline - start, 0.0), proc.kill)
    timer.start()
    ready = None
    lines = []
    try:
        for line in proc.stdout:
            if ready is None and line.strip() == "READY":
                ready = time.perf_counter() - start
            else:
                lines.append(line.rstrip("\n"))
        code = proc.wait()
    finally:
        timer.cancel()
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        proc.stdout.close()
    if code != 0 or ready is None:
        raise ChildFailed(f"bench.py exited with code {code} (ready: {ready is not None})")
    return ready, lines


def tagged(lines: list[str], tag: str) -> dict:
    for line in lines:
        if line.startswith(tag + " "):
            return json.loads(line[len(tag) + 1:])
    raise ChildFailed(f"bench.py printed no {tag} line")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="purifykit benchmark")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--size", choices=("full", "smoke"), default="full",
                        help="smoke: tiny inputs, for the benchmark's own tests")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "purifykit" / "__init__.py").is_file():
        print(f"error: no purifykit sources under {ROOT / 'src'}; "
              "run from a checkout of the repository", file=sys.stderr)
        return 2
    deadline = time.perf_counter() + RUN_BUDGET_S
    setup_only = 0 if args.trace else SETUP_SAMPLES - 1
    try:
        # Set-up samples on both sides of the measurement, so that a
        # stretch of slow host does not cover all of them.
        setup = [spawn(args, True, deadline)[0] for _ in range(setup_only // 2)]
        ready, lines = spawn(args, False, deadline)
        setup.append(ready)
        setup += [spawn(args, True, deadline)[0] for _ in range(setup_only - setup_only // 2)]
        env, info, result = (tagged(lines, tag) for tag in ("ENV", "INFO", "RESULT"))
    except ChildFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if not args.trace:
        result["metrics"]["setup_s"] = {"value": min(setup), "unit": "s"}

    out_dir = HERE / ".out"
    out_dir.mkdir(exist_ok=True)
    record = {"env": env, "info": info, "setup_samples_s": setup, "result": result}
    record_path = out_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    record_path.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")

    print("env: " + json.dumps(env))
    print("info: " + json.dumps(info) + f" setup samples: {len(setup)}")
    for name, metric in result["metrics"].items():
        print(f"{name} = {metric['value']!r} {metric['unit']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
