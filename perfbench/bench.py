"""One benchmark process: set up a workload, warm it up, then measure it.

Started by ``run.py`` with the BLAS thread count already pinned in its
environment; not meant to be run by hand. It prints ``READY`` once set-up
(imports, inputs, one warm-up op) is done, then, unless
``--setup-only``, one ``ENV``, ``INFO`` and ``RESULT`` line of JSON.

The loop is closed with one caller: the next op starts only after the
previous one and its check have finished. Only the library call is
timed; the numpy oracle runs between ops, outside the timed region.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import sys
import time
import traceback
import tracemalloc
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = HERE / ".out"

# Metric name -> unit, as BENCHMARK.json lists them. With --trace 0 the
# run reports END_TO_END, with --trace 1 PER_LAYER. Per-layer names are
# "<span>.<kind>": self_ms and validate_ms are self time per op,
# calls_per_op a call count per op, peak_mb the tracemalloc peak inside
# the span, share the span's self time over the op's time.
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
END_TO_END = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
PER_LAYER = {m["name"]: m["unit"] for m in SPEC["per_layer"]}


@dataclass
class Stats:
    """Outcome of a stretch of whole cycles: per-op library time and failures."""

    durations: list[float] = field(default_factory=list)
    cycle_rates: list[float] = field(default_factory=list)  # passed ops / cycle time
    failed: int = 0

    @property
    def attempted(self) -> int:
        return len(self.durations)

    def ops_per_s(self) -> float:
        """Throughput sustained in 90% of cycles: the 10th percentile of cycle rates.

        On a shared host whole stretches of a run can go much faster when
        the neighbours idle; a median lands in one mode or the other from
        run to run, while the slow tail is there in every run.
        """
        return float(np.percentile(self.cycle_rates, 10))

    def __add__(self, other: "Stats") -> "Stats":
        return Stats(
            self.durations + other.durations,
            self.cycle_rates + other.cycle_rates,
            self.failed + other.failed,
        )


def timed_op(workload, i: int, tracer=None) -> tuple[float, bool]:
    """Run op i of the cycle; returns its library time and whether it passed.

    An op that raises, or whose result the check rejects or cannot read,
    is a failure; the traceback goes to stderr and the loop goes on.
    """
    start = time.perf_counter()
    try:
        if tracer is None:
            result = workload.run(i)
        else:
            with tracer.operation():
                result = workload.run(i)
    except Exception:
        elapsed = time.perf_counter() - start
        traceback.print_exc()
        return elapsed, False
    elapsed = time.perf_counter() - start
    try:
        return elapsed, bool(workload.check(i, result))
    except Exception:
        traceback.print_exc()
        return elapsed, False


def measure(workload, seconds: float, tracer=None) -> Stats:
    """Run whole cycles until ``seconds`` have passed; at least one cycle."""
    stats = Stats()
    deadline = time.perf_counter() + seconds
    while True:
        cycle_s = 0.0
        passed = 0
        for i in range(workload.cycle):
            elapsed, ok = timed_op(workload, i, tracer)
            stats.durations.append(elapsed)
            cycle_s += elapsed
            passed += ok
        stats.failed += workload.cycle - passed
        stats.cycle_rates.append(passed / cycle_s)
        if time.perf_counter() >= deadline:
            return stats


def end_to_end(stats: Stats, cycle: int) -> dict[str, float]:
    """Every end-to-end metric except setup_s, which run.py measures.

    op_p90_ms is taken per op of the cycle and averaged over the cycle:
    the cli-files cycle mixes commands of 5 to 60 ms, and one percentile
    over all of them would fall on the boundary between two commands.
    """
    by_op = np.asarray(stats.durations).reshape(-1, cycle) * 1e3
    return {
        "ops_per_s": stats.ops_per_s(),
        "op_p90_ms": float(np.percentile(by_op, 90, axis=0).mean()),
        "ok_ratio": 1.0 - stats.failed / stats.attempted,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6,
    }


def per_layer(summary: dict, plain: Stats, traced: Stats) -> dict[str, float]:
    """Every per-layer metric, from the tracer's summary and the paired cycles.

    trace.overhead_pct is the median over pairs of how much longer the
    traced cycle took than the plain one next to it.
    """
    ops = summary["ops"]
    counts = summary["counts"]
    overhead = [p / t - 1.0 for p, t in zip(plain.cycle_rates, traced.cycle_rates)]
    specials = {
        "fileio.bytes_read": counts["fileio.bytes_read"] / ops,
        "fileio.bytes_written": counts["fileio.bytes_written"] / ops,
        "purification.outcomes_kept_ratio": (
            counts["purification.outcomes_kept"] / counts["purification.outcome_slots"]
            if counts["purification.outcome_slots"]
            else 0.0
        ),
        "trace.untraced_ops_per_s": plain.ops_per_s(),
        "trace.traced_ops_per_s": traced.ops_per_s(),
        "trace.overhead_pct": 100.0 * float(np.median(overhead)),
    }
    values = {}
    for name in PER_LAYER:
        if name in specials:
            values[name] = specials[name]
            continue
        span, _, kind = name.rpartition(".")
        if kind in ("self_ms", "validate_ms"):
            values[name] = summary["self_s"][span] * 1e3 / ops
        elif kind == "calls_per_op":
            values[name] = summary["calls"][span] / ops
        elif kind == "share":
            values[name] = summary["self_s"][span] / summary["op_s"]
        else:  # peak_mb
            values[name] = summary["peaks"][span] / 1e6
    return values


def traced_run(workload, seconds: float, spans_path: Path):
    """Plain and traced cycles in pairs for ``seconds``, then one cycle under tracemalloc.

    The tracer is installed for each traced cycle and removed after it,
    and the order within a pair swaps from pair to pair, so both
    conditions run under the same host speed.
    """
    from tracer import Tracer

    tracer = Tracer()
    tracer.timing = True
    plain, traced = Stats(), Stats()
    deadline = time.perf_counter() + seconds
    pairs = 0
    while pairs == 0 or time.perf_counter() < deadline:
        for use_tracer in (False, True) if pairs % 2 == 0 else (True, False):
            if use_tracer:
                tracer.install()
                try:
                    traced += measure(workload, 0, tracer)
                finally:
                    tracer.uninstall()
            else:
                plain += measure(workload, 0)
        pairs += 1
    tracer.timing = False
    tracer.memory = True
    tracer.install()
    tracemalloc.start()
    try:
        memory = measure(workload, 0)
    finally:
        tracemalloc.stop()
        tracer.uninstall()
    tracer.dump(spans_path)
    return per_layer(tracer.summary(), plain, traced), plain + traced + memory, traced


def git_sha(root: Path) -> str:
    """HEAD commit read from .git without running git; "unknown" outside a clone."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(args) -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        blas = {}
    return {
        "git_sha": git_sha(ROOT),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas.get("name", "unknown"),
        "blas_version": blas.get("version", "unknown"),
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS", "unset"),
        "nproc": os.cpu_count(),
        "workload": args.workload,
        "seed": args.seed,
        "size": args.size,
        "seconds": args.seconds,
        "traced": bool(args.trace),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--size", choices=("full", "smoke"), default="full")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import purifykit

    if Path(purifykit.__file__).resolve().parent != (src / "purifykit").resolve():
        print(f"error: purifykit was imported from {purifykit.__file__}", file=sys.stderr)
        return 2
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; one of {workloads.WORKLOADS}",
              file=sys.stderr)
        return 2

    workload = workloads.make(
        args.workload, args.seed, args.size, HERE / ".work" / f"{args.workload}-{os.getpid()}"
    )
    try:
        elapsed, ok = timed_op(workload, 0)
        warm = Stats([elapsed], [], int(not ok))
        print("READY", flush=True)
        if args.setup_only:
            return 0
        info = {"warmup_ops": 1}
        if args.trace:
            OUT_DIR.mkdir(exist_ok=True)
            spans_path = OUT_DIR / f"spans-{args.workload}-seed{args.seed}.jsonl"
            metrics, stats, traced = traced_run(workload, args.seconds, spans_path)
            info.update(traced_ops=traced.attempted, spans=str(spans_path.relative_to(ROOT)))
            units = PER_LAYER
        else:
            stats = measure(workload, args.seconds)
            metrics = end_to_end(stats, workload.cycle)
            info.update(
                latency_samples=stats.attempted,
                cycles=len(stats.cycle_rates),
                op_p50_ms=float(np.percentile(stats.durations, 50)) * 1e3,
            )
            units = END_TO_END
        info["fail_ratio"] = stats.failed / stats.attempted
        stats = warm + stats
    finally:
        workload.close()
    result = {
        "correct": stats.failed == 0,
        "attempted": stats.attempted,
        "failed": stats.failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    print("ENV " + json.dumps(environment(args)))
    print("INFO " + json.dumps(info))
    print("RESULT " + json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
