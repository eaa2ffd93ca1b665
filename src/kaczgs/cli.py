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

Exit codes: 0 on success, 2 on configuration errors (including malformed
or non-UTF-8 inputs and paths that cannot be opened), 3 on numerical errors.
"""
from __future__ import annotations

import argparse
import sys
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


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="kaczgs",
        description="Randomized Kaczmarz / Gauss-Seidel solvers, problem generators, "
        "convergence experiments, and theory-bound curves.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_gen = sub.add_parser("gen", help="generate a Gaussian system directory")
    p_gen.add_argument("--m", type=int, required=True)
    p_gen.add_argument("--n", type=int, required=True)
    p_gen.add_argument("--regime", choices=_values(Regime), required=True)
    p_gen.add_argument("--seed", type=_seed, default=0)
    p_gen.add_argument("--noise-scale", type=float, default=1.0)
    p_gen.add_argument("--out", required=True, help="system directory to write")

    p_tomo = sub.add_parser("tomo", help="generate a tomography-style system directory")
    p_tomo.add_argument("--grid-n", type=int, required=True)
    p_tomo.add_argument("--oversample", type=int, required=True)
    p_tomo.add_argument("--seed", type=_seed, default=0)
    p_tomo.add_argument("--out", required=True, help="system directory to write")

    p_solve = sub.add_parser("solve", help="single-trial run with per-iteration CSV")
    p_solve.add_argument("--system", required=True, help="system directory")
    p_solve.add_argument("--solver", choices=_values(SolverKind), required=True)
    p_solve.add_argument("--stop-metric", choices=_values(StopMetric), default="error")
    p_solve.add_argument(
        "--trial", type=int, default=0, help="trial index, from 0 (seeds the stream)"
    )
    _add_common(p_solve)

    p_cmp = sub.add_parser("compare", help="multi-trial, multi-solver aggregate CSV")
    p_cmp.add_argument("--system", required=True)
    p_cmp.add_argument(
        "--solvers",
        default="rk,rgs,rek,regs",
        help="comma-separated subset of rk,rgs,rek,regs (default all)",
    )
    p_cmp.add_argument("--trials", type=int, default=50)
    p_cmp.add_argument(
        "--workers",
        type=int,
        default=1,
        help="accepted and validated (>= 1) but has no effect: trials run in one thread",
    )
    p_cmp.add_argument(
        "--redraw-per-trial",
        action="store_true",
        help="redraw the matrix for every trial instead of sharing one draw",
    )
    p_cmp.add_argument(
        "--timings-out", default=None, help="optional wall-clock CSV path, '-' for stdout"
    )
    _add_common(p_cmp)

    p_bounds = sub.add_parser("bounds", help="theory bound curve for one solver")
    p_bounds.add_argument("--system", required=True)
    p_bounds.add_argument("--solver", choices=_values(SolverKind), required=True)
    _add_common(p_bounds)

    return parser


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


_COMMANDS = {
    "gen": _cmd_gen,
    "tomo": _cmd_tomo,
    "solve": _cmd_solve,
    "compare": _cmd_compare,
    "bounds": _cmd_bounds,
}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except (ConfigurationError, OSError) as exc:  # OSError: a path that cannot be opened
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except NumericalError as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
