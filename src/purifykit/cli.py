"""Command-line surface tying the library into reproducible runs over files.

Exit codes: 0 success, 1 parse/validation error, 2 a numerical
post-condition residual above tolerance, 3 a semantic negative
(the inputs are not equivalent). A library error exits with the
``exit_status`` of its class. The default tolerance is 1e-9 and can be
overridden by the PURIFYKIT_TOL environment variable when no --tol flag
is given. ``COMMANDS`` defines every subcommand; the parser and the
:class:`RunConfig` are both built from it.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import math
import os
import sys
from dataclasses import dataclass
from typing import Callable, NamedTuple

from . import fileio, numerics
from .dynamics import EvolutionParams, build_model, verification_report
from .ensembles import (
    density_deviation,
    random_equivalent_ensemble,
    spectral_ensemble,
    weighted_projector_sum,
)
from .errors import PurifyKitError
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

    def __post_init__(self):
        if not self.tol > 0:
            raise PurifyKitError(f"tolerance must be positive, got {self.tol}")
        if not math.isfinite(self.tol):
            raise PurifyKitError(f"tolerance must be finite, got {self.tol}")
        if self.seed < 0:
            raise PurifyKitError(f"seed must be non-negative, got {self.seed}")


def default_tolerance() -> float:
    raw = os.environ.get("PURIFYKIT_TOL")
    if raw is None:
        return TOL.equivalence
    with contextlib.suppress(ValueError):
        return float(raw)
    raise PurifyKitError(f"PURIFYKIT_TOL is not a number: {raw!r}")


def _cmd_equiv(config: RunConfig) -> int:
    first = fileio.read_ensemble(config.inputs[0])
    second = fileio.read_ensemble(config.inputs[1])
    deviation = density_deviation(first, second)
    equivalent = deviation <= config.tol
    verdict = "equivalent" if equivalent else "not equivalent"
    print(f"max density-matrix deviation: {deviation:.17g} (tol {config.tol:.1e}): {verdict}")
    return 0 if equivalent else 3


def _cmd_purify(config: RunConfig) -> int:
    ensemble = fileio.read_ensemble(config.inputs[0])
    psi = purify(spectral_ensemble(ensemble), config.dim_k)
    residual = numerics.max_abs(psi.reduced_system() - weighted_projector_sum(ensemble))
    if config.output:
        fileio.write_bipartite_state(config.output, psi)
    check = Check("partial-trace residual", residual, TOL.partial_trace)
    print(check.line)
    return 0 if check.passed else 2


def _cmd_steer(config: RunConfig) -> int:
    source = fileio.read_ensemble(config.inputs[0])
    target = fileio.read_ensemble(config.inputs[1])
    spectral = spectral_ensemble(source)
    plan, _, report = prepare_ensemble(spectral, target, tol=config.tol)
    if config.output:
        fileio.write_plan(config.output, plan)
    print(report.render())
    return 0 if report.passed() else 2


def _cmd_dynamics(config: RunConfig) -> int:
    if not math.isfinite(config.omega):
        raise PurifyKitError(f"omega must be finite, got {config.omega}")
    if config.omega == 0:
        raise PurifyKitError("omega must be nonzero")
    duration = (math.pi / 2) / config.omega
    if not math.isfinite(duration):
        raise PurifyKitError(f"omega {config.omega} is too small: the pulse duration overflows")
    ensemble = fileio.read_ensemble(config.inputs[0])
    spectral = spectral_ensemble(ensemble)
    model = build_model(spectral.states, spectral.rank)
    params = EvolutionParams(omega=config.omega, duration=duration)
    report = verification_report(model, params)
    text = report.render()
    if config.output:
        fileio.write_text(config.output, text + "\n")
    print(text)
    return 0 if report.passed() else 2


def _cmd_qubit_demo(config: RunConfig) -> int:
    report = qubit_demo(config.q, config.theta, config.phase, seed=config.seed)
    print(report.render())
    return 0 if report.passed() else 2


def _cmd_random_equiv(config: RunConfig) -> int:
    rho = fileio.read_density_matrix(config.inputs[0])
    ensemble = random_equivalent_ensemble(rho, config.count, config.seed)
    if config.output:
        fileio.write_ensemble(config.output, ensemble)
    check = Check("density-matrix deviation", density_deviation(ensemble, rho), config.tol)
    print(check.line)
    return 0 if check.passed else 2


class Command(NamedTuple):
    """One subcommand: the handler it runs and how its arguments parse."""

    handler: Callable[[RunConfig], int]
    help: str
    positionals: tuple[str, ...]
    options: tuple[str, ...]


# argparse settings per flag. Each dest is a RunConfig field. A flag left
# out of the argv leaves its field at the RunConfig default, except --tol,
# whose default comes from default_tolerance().
_OPTIONS = {
    "--tol": {"type": float},
    "--kdim": {"type": int, "dest": "dim_k", "metavar": "KDIM"},
    "--out": {"dest": "output", "metavar": "OUT"},
    "--omega": {"type": float},
    "--q": {"type": float},
    "--theta": {"type": float},
    "--phase": {"type": float},
    "--seed": {"type": int},
    "--count": {"type": int, "required": True},
}

COMMANDS = {
    "equiv": Command(
        _cmd_equiv, "test two ensemble files for equivalence", ("first", "second"), ("--tol",)
    ),
    "purify": Command(
        _cmd_purify, "purify an ensemble file", ("ensemble",), ("--kdim", "--out")
    ),
    "steer": Command(
        _cmd_steer,
        "steer a source ensemble into a target",
        ("source", "target"),
        ("--tol", "--out"),
    ),
    "dynamics": Command(
        _cmd_dynamics, "verify the correlating Hamiltonian", ("ensemble",), ("--omega", "--out")
    ),
    "qubit-demo": Command(
        _cmd_qubit_demo,
        "run the three-gate qubit demo",
        (),
        ("--q", "--theta", "--phase", "--seed"),
    ),
    "random-equiv": Command(
        _cmd_random_equiv,
        "draw a random ensemble equivalent to a density matrix",
        ("rho",),
        ("--count", "--seed", "--tol", "--out"),
    ),
}

_PREFIXES = {1: "error", 2: "numerical contract failure", 3: "not equivalent"}


def _exit_status(make_config: Callable[[], RunConfig]) -> int:
    """Build a config and run its command; a library, OS or memory error becomes its status."""
    try:
        config = make_config()
        command = COMMANDS.get(config.command)
        if command is None:
            raise PurifyKitError(f"unknown command {config.command!r}")
        return command.handler(config)
    except (PurifyKitError, OSError, MemoryError) as exc:
        status = getattr(exc, "exit_status", 1)
        print(f"{_PREFIXES[status]}: {exc}", file=sys.stderr)
        return status


def run(config: RunConfig) -> int:
    """Dispatch one command; returns the process exit status."""
    return _exit_status(lambda: config)


class _Parser(argparse.ArgumentParser):
    """argparse with usage errors mapped to exit 1, the parse-error status.

    argparse exits 2 by default, which here means a failed numerical check.
    Subparsers inherit this class.
    """

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser of every command, built once per process and shared:
    parsing leaves it unchanged, and PURIFYKIT_TOL is read per call by
    :func:`config_from_args`."""
    parser = _Parser(
        prog="purifykit",
        description="Purify finite quantum ensembles and steer them into "
        "equivalent ensembles.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, command in COMMANDS.items():
        parsed = sub.add_parser(name, help=command.help, argument_default=argparse.SUPPRESS)
        for positional in command.positionals:
            parsed.add_argument(positional)
        for flag in command.options:
            parsed.add_argument(flag, **_OPTIONS[flag])
    return parser


def config_from_args(args: argparse.Namespace) -> RunConfig:
    fields = dict(vars(args))
    fields["inputs"] = tuple(fields.pop(name) for name in COMMANDS[args.command].positionals)
    if "tol" not in fields:
        fields["tol"] = default_tolerance()
    return RunConfig(**fields)


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return _exit_status(lambda: config_from_args(args))


if __name__ == "__main__":
    sys.exit(main())
