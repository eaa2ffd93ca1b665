"""Command-line interface: parses flags, opens outputs and dispatches.

Subcommands:

  gen      draw a Gaussian system for one regime and save it to a directory
  tomo     draw a tomography-style underdetermined system
  solve    run one solver for a single trial, emitting a per-iteration CSV
           (trial,iteration,solver,error_sq,residual_sq)
  compare  run several solvers for many trials, emitting the aggregate CSV
           (iteration,solver,mean_err_sq,median_err_sq,min_err_sq,max_err_sq,bound_value)
  bounds   evaluate the theory bound curve for one solver on one system
           (iteration,bound_value)

``problems`` writes the system directory with its generator metadata,
``harness`` writes every CSV, and the library's config objects check the
flags. Every CSV output path may be '-' for stdout.

``main`` registers all five subcommands with their help lines, but adds
the arguments of only the one that argparse dispatches to: the first token
of argv that is not an option. Every help text, usage line, error and exit
code is that of the parser with every subcommand's arguments
(``build_parser()``), whose add_argument calls are most of the time it
takes to build.

Exit codes: 0 on success, 2 on configuration errors (including malformed
or non-UTF-8 inputs, paths that cannot be opened and arrays too big to
allocate), 3 on numerical errors.
"""
from __future__ import annotations

import argparse
import sys
from collections.abc import Iterable
from contextlib import contextmanager

from .errors import ConfigurationError, NumericalError
from .harness import (
    ExperimentConfig,
    compare_solvers,
    emit_bounds_csv,
    emit_csv,
    emit_timings_csv,
    emit_trace_csv,
    print_timing_summary,
    trial_rng,
)
from .linalg import Regime
from .problems import GenSpec, TomoSpec, gen_gaussian, gen_tomography, load_system, save_system
from .sampling import check_seed
from .solvers import SolveConfig, SolverKind, StopMetric, run
from .theory import TheoryBound


@contextmanager
def _open_out(path: str):
    if path == "-":
        yield sys.stdout
    else:
        with open(path, "w", newline="\n") as fh:
            yield fh


def _seed(text: str) -> int:
    """argparse type for --seed: an integer in [0, 2**64), rejected before any work."""
    try:
        return check_seed(int(text))
    except (ValueError, ConfigurationError) as exc:
        raise argparse.ArgumentTypeError(str(exc)) from exc


def _values(enum) -> list[str]:
    return sorted(member.value for member in enum)


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--seed", type=_seed, default=0, help="base 64-bit seed (default 0)")
    parser.add_argument("--tol", type=float, default=1e-6, help="stopping tolerance on the squared metric")
    parser.add_argument("--max-iter", type=int, default=100_000, help="iteration cap (default 1e5)")
    parser.add_argument("--record-every", type=int, default=1, help="history stride (default 1)")
    parser.add_argument("--out", default="-", help="output file, '-' for stdout")


def _gen_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--m", type=int, required=True)
    parser.add_argument("--n", type=int, required=True)
    parser.add_argument("--regime", choices=_values(Regime), required=True)
    parser.add_argument("--seed", type=_seed, default=0)
    parser.add_argument("--noise-scale", type=float, default=1.0)
    parser.add_argument("--out", required=True, help="system directory to write")


def _tomo_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--grid-n", type=int, required=True)
    parser.add_argument("--oversample", type=int, required=True)
    parser.add_argument("--seed", type=_seed, default=0)
    parser.add_argument("--out", required=True, help="system directory to write")


def _solve_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--system", required=True, help="system directory")
    parser.add_argument("--solver", choices=_values(SolverKind), required=True)
    parser.add_argument("--stop-metric", choices=_values(StopMetric), default="error")
    parser.add_argument(
        "--trial", type=int, default=0, help="trial index, from 0 (seeds the stream)"
    )
    _add_common(parser)


def _compare_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--system", required=True)
    parser.add_argument(
        "--solvers",
        default="rk,rgs,rek,regs",
        help="comma-separated subset of rk,rgs,rek,regs (default all)",
    )
    parser.add_argument("--trials", type=int, default=50)
    parser.add_argument(
        "--workers",
        type=int,
        default=1,
        help="accepted and validated (>= 1) but has no effect: trials run in one thread",
    )
    parser.add_argument(
        "--redraw-per-trial",
        action="store_true",
        help="redraw the matrix for every trial instead of sharing one draw",
    )
    parser.add_argument(
        "--timings-out", default=None, help="optional wall-clock CSV path, '-' for stdout"
    )
    _add_common(parser)


def _bounds_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--system", required=True)
    parser.add_argument("--solver", choices=_values(SolverKind), required=True)
    _add_common(parser)


def _cmd_gen(args) -> int:
    spec = GenSpec(m=args.m, n=args.n, regime=Regime(args.regime), seed=args.seed,
                   noise_scale=args.noise_scale)
    system = gen_gaussian(spec)
    save_system(system, args.out, spec)
    print(f"wrote {system.m}x{system.n} {system.regime.value} system to {args.out}")
    return 0


def _cmd_tomo(args) -> int:
    spec = TomoSpec(grid_n=args.grid_n, oversample=args.oversample, seed=args.seed)
    system = gen_tomography(spec)
    save_system(system, args.out, spec)
    print(f"wrote {system.m}x{system.n} tomography system to {args.out}")
    return 0


def _cmd_solve(args) -> int:
    config = SolveConfig(max_iter=args.max_iter, tol=args.tol, record_every=args.record_every,
                         stop_metric=StopMetric(args.stop_metric))
    kind = SolverKind(args.solver)
    rng = trial_rng(args.seed, kind, args.trial)
    trace = run(load_system(args.system), kind, config, rng, trial=args.trial)
    with _open_out(args.out) as fh:
        emit_trace_csv(trace, fh)
    status = "converged" if trace.converged else "did not converge"
    print(f"{kind.name} {status} at iteration {trace.final_iteration}", file=sys.stderr)
    return 0


def _parse_solver_list(text: str) -> list[SolverKind]:
    kinds = []
    for name in text.split(","):
        name = name.strip().lower()
        if not name:
            continue
        try:
            kinds.append(SolverKind(name))
        except ValueError:
            raise ConfigurationError(
                f"unknown solver {name!r}; choose from rk,rgs,rek,regs"
            ) from None
    return kinds  # ExperimentConfig rejects an empty or repeated list


def _cmd_compare(args) -> int:
    if args.workers < 1:
        raise ConfigurationError(f"workers must be >= 1, got {args.workers}")
    cfg = ExperimentConfig(
        system_dir=args.system,
        solvers=_parse_solver_list(args.solvers),
        trials=args.trials,
        max_iter=args.max_iter,
        tol=args.tol,
        base_seed=args.seed,
        record_every=args.record_every,
        redraw_matrix_per_trial=args.redraw_per_trial,
    )
    trace = compare_solvers(cfg)
    with _open_out(args.out) as fh:
        emit_csv(trace, fh)
    if args.timings_out:
        with _open_out(args.timings_out) as fh:
            emit_timings_csv(trace, fh)
    print_timing_summary(trace, sys.stderr)
    return 0


def _cmd_bounds(args) -> int:
    config = SolveConfig(max_iter=args.max_iter, tol=args.tol, record_every=args.record_every)
    bound = TheoryBound.from_system(load_system(args.system)).curve(SolverKind(args.solver))
    with _open_out(args.out) as fh:
        emit_bounds_csv(bound, config, fh)
    return 0


#: name -> (help line, the function adding its arguments, the function running it)
_COMMANDS = {
    "gen": ("generate a Gaussian system directory", _gen_arguments, _cmd_gen),
    "tomo": ("generate a tomography-style system directory", _tomo_arguments, _cmd_tomo),
    "solve": ("single-trial run with per-iteration CSV", _solve_arguments, _cmd_solve),
    "compare": ("multi-trial, multi-solver aggregate CSV", _compare_arguments, _cmd_compare),
    "bounds": ("theory bound curve for one solver", _bounds_arguments, _cmd_bounds),
}


def build_parser(commands: Iterable[str] = tuple(_COMMANDS)) -> argparse.ArgumentParser:
    """The kaczgs parser, with the arguments of the subcommands in ``commands`` only.

    Every subcommand is registered with its help line whatever ``commands``
    holds, so the top-level help, usage and errors never depend on it.
    """
    parser = argparse.ArgumentParser(
        prog="kaczgs",
        description="Randomized Kaczmarz / Gauss-Seidel solvers, problem generators, "
        "convergence experiments, and theory-bound curves.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_line, add_arguments, _) in _COMMANDS.items():
        subparser = sub.add_parser(name, help=help_line)
        if name in commands:
            add_arguments(subparser)
    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    # argparse dispatches on the first token that is not an option (the
    # top-level parser has only -h), so only that subcommand needs its arguments
    first = next((token for token in argv if not token.startswith("-")), None)
    args = build_parser([first] if first in _COMMANDS else []).parse_args(argv)
    try:
        return _COMMANDS[args.command][2](args)
    except (ConfigurationError, OSError) as exc:  # OSError: a path that cannot be opened
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:  # e.g. a gen or tomo shape under the size check, too big for RAM
        print(f"configuration error: out of memory: {str(exc) or 'allocation failed'}",
              file=sys.stderr)
        return 2
    except NumericalError as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
