"""Command-line surface tying the library into reproducible runs over files.

Exit codes: 0 success, 1 parse/validation error, 2 a numerical
post-condition residual above tolerance, 3 a semantic negative
(the inputs are not equivalent). The default tolerance is 1e-9 and can
be overridden by the PURIFYKIT_TOL environment variable when no --tol
flag is given.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from dataclasses import dataclass, field

from . import fileio, numerics
from .dynamics import EvolutionParams, build_model, verification_report
from .ensembles import (
    density_deviation,
    density_matrix,
    random_equivalent_ensemble,
    spectral_ensemble,
)
from .errors import (
    ContractViolation,
    NotEquivalent,
    NotHermitian,
    NotOrthonormal,
    NotSquare,
    NotUnitary,
    PurifyKitError,
    TargetOutsideSupport,
    TooManyRows,
)
from .numerics import TOL
from .purification import prepare_ensemble, purify
from .qubit_gates import qubit_demo
from .reports import Check


@dataclass
class RunConfig:
    """One parsed invocation."""

    command: str
    inputs: tuple[str, ...] = ()
    output: str | None = None
    tol: float = TOL.equivalence
    seed: int = 0
    dim_k: int | None = None
    omega: float = 1.0
    count: int = 2
    q: float = 0.5
    theta: float = math.pi / 4
    phase: float = 0.0
    stdout: object = field(default=None, repr=False)

    def __post_init__(self):
        if not self.tol > 0:
            raise PurifyKitError(f"tolerance must be positive, got {self.tol}")
        if self.seed < 0:
            raise PurifyKitError(f"seed must be non-negative, got {self.seed}")

    def emit(self, text: str) -> None:
        print(text, file=self.stdout or sys.stdout)


def default_tolerance() -> float:
    raw = os.environ.get("PURIFYKIT_TOL")
    if raw is None:
        return TOL.equivalence
    try:
        return float(raw)
    except ValueError as exc:
        raise PurifyKitError(f"PURIFYKIT_TOL is not a number: {raw!r}") from exc


def _cmd_equiv(config: RunConfig) -> int:
    first = fileio.read_ensemble(config.inputs[0])
    second = fileio.read_ensemble(config.inputs[1])
    deviation = density_deviation(first, second)
    equivalent = deviation <= config.tol
    verdict = "equivalent" if equivalent else "not equivalent"
    config.emit(
        f"max density-matrix deviation: {deviation:.17g} (tol {config.tol:.1e}): {verdict}"
    )
    return 0 if equivalent else 3


def _cmd_purify(config: RunConfig) -> int:
    ensemble = fileio.read_ensemble(config.inputs[0])
    rho = density_matrix(ensemble)
    psi = purify(spectral_ensemble(rho), config.dim_k)
    residual = numerics.max_abs(psi.reduced_system() - rho.matrix)
    if config.output:
        fileio.write_bipartite_state(config.output, psi)
    check = Check("partial-trace residual", residual, TOL.partial_trace)
    config.emit(check.line)
    return 0 if check.passed else 2


def _cmd_steer(config: RunConfig) -> int:
    source = fileio.read_ensemble(config.inputs[0])
    target = fileio.read_ensemble(config.inputs[1])
    spectral = spectral_ensemble(density_matrix(source))
    plan, _, report = prepare_ensemble(spectral, target, tol=config.tol)
    if config.output:
        fileio.write_plan(config.output, plan)
    config.emit(report.render())
    return 0 if report.passed() else 2


def _cmd_dynamics(config: RunConfig) -> int:
    if not math.isfinite(config.omega):
        raise PurifyKitError(f"omega must be finite, got {config.omega}")
    if config.omega == 0:
        raise PurifyKitError("omega must be nonzero")
    ensemble = fileio.read_ensemble(config.inputs[0])
    spectral = spectral_ensemble(density_matrix(ensemble))
    model = build_model(spectral.states, spectral.rank)
    params = EvolutionParams(omega=config.omega, duration=math.pi / (2 * config.omega))
    report = verification_report(model, params)
    text = report.render()
    if config.output:
        with open(config.output, "w", encoding="utf-8") as handle:
            handle.write(text + "\n")
    config.emit(text)
    return 0 if report.passed() else 2


def _cmd_qubit_demo(config: RunConfig) -> int:
    report = qubit_demo(config.q, config.theta, config.phase, seed=config.seed)
    config.emit(report.render())
    return 0 if report.passed() else 2


def _cmd_random_equiv(config: RunConfig) -> int:
    rho = fileio.read_density_matrix(config.inputs[0])
    ensemble = random_equivalent_ensemble(rho, config.count, config.seed)
    if config.output:
        fileio.write_ensemble(config.output, ensemble)
    deviation = numerics.max_abs(density_matrix(ensemble).matrix - rho.matrix)
    check = Check("density-matrix deviation", deviation, config.tol)
    config.emit(check.line)
    return 0 if check.passed else 2


_COMMANDS = {
    "equiv": _cmd_equiv,
    "purify": _cmd_purify,
    "steer": _cmd_steer,
    "dynamics": _cmd_dynamics,
    "qubit-demo": _cmd_qubit_demo,
    "random-equiv": _cmd_random_equiv,
}


def run(config: RunConfig) -> int:
    """Dispatch one command; returns the process exit status."""
    handler = _COMMANDS.get(config.command)
    if handler is None:
        print(f"error: unknown command {config.command!r}", file=sys.stderr)
        return 1
    try:
        return handler(config)
    except (NotEquivalent, TargetOutsideSupport) as exc:
        print(f"not equivalent: {exc}", file=sys.stderr)
        return 3
    except (
        ContractViolation,
        NotOrthonormal,
        NotHermitian,
        NotUnitary,
        NotSquare,
        TooManyRows,
    ) as exc:
        print(f"numerical contract failure: {exc}", file=sys.stderr)
        return 2
    except (PurifyKitError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


class _Parser(argparse.ArgumentParser):
    """argparse with usage errors mapped to exit 1, the parse-error status.

    argparse exits 2 by default, which here means a failed numerical check.
    Subparsers inherit this class.
    """

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="purifykit",
        description="Purify finite quantum ensembles and steer them into "
        "equivalent ensembles.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    equiv = sub.add_parser("equiv", help="test two ensemble files for equivalence")
    equiv.add_argument("first")
    equiv.add_argument("second")
    equiv.add_argument("--tol", type=float, default=None)

    pur = sub.add_parser("purify", help="purify an ensemble file")
    pur.add_argument("ensemble")
    pur.add_argument("--kdim", type=int, default=None)
    pur.add_argument("--out", default=None)

    steer = sub.add_parser("steer", help="steer a source ensemble into a target")
    steer.add_argument("source")
    steer.add_argument("target")
    steer.add_argument("--tol", type=float, default=None)
    steer.add_argument("--out", default=None)

    dyn = sub.add_parser("dynamics", help="verify the correlating Hamiltonian")
    dyn.add_argument("ensemble")
    dyn.add_argument("--omega", type=float, default=1.0)
    dyn.add_argument("--out", default=None)

    demo = sub.add_parser("qubit-demo", help="run the three-gate qubit demo")
    demo.add_argument("--q", type=float, default=0.5)
    demo.add_argument("--theta", type=float, default=math.pi / 4)
    demo.add_argument("--phase", type=float, default=0.0)
    demo.add_argument("--seed", type=int, default=0)

    rand = sub.add_parser(
        "random-equiv", help="draw a random ensemble equivalent to a density matrix"
    )
    rand.add_argument("rho")
    rand.add_argument("--count", type=int, required=True)
    rand.add_argument("--seed", type=int, default=0)
    rand.add_argument("--tol", type=float, default=None)
    rand.add_argument("--out", default=None)

    return parser


def config_from_args(args: argparse.Namespace) -> RunConfig:
    tol = getattr(args, "tol", None)
    config = RunConfig(
        command=args.command,
        tol=default_tolerance() if tol is None else tol,
        seed=getattr(args, "seed", 0),
    )
    if args.command == "equiv":
        config.inputs = (args.first, args.second)
    elif args.command == "purify":
        config.inputs = (args.ensemble,)
        config.dim_k = args.kdim
        config.output = args.out
    elif args.command == "steer":
        config.inputs = (args.source, args.target)
        config.output = args.out
    elif args.command == "dynamics":
        config.inputs = (args.ensemble,)
        config.omega = args.omega
        config.output = args.out
    elif args.command == "qubit-demo":
        config.q = args.q
        config.theta = args.theta
        config.phase = args.phase
    elif args.command == "random-equiv":
        config.inputs = (args.rho,)
        config.count = args.count
        config.output = args.out
    return config


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        config = config_from_args(args)
    except PurifyKitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return run(config)


if __name__ == "__main__":
    sys.exit(main())
