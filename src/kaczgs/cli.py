"""Command-line interface.

Subcommands:

  gen      draw a Gaussian system for one regime and save it to a directory
  tomo     draw a tomography-style underdetermined system
  solve    run one solver for a single trial, emitting a per-iteration CSV
           (trial,iteration,solver,error_sq,residual_sq)
  compare  run several solvers for many trials, emitting the aggregate CSV
           (iteration,solver,mean_err_sq,median_err_sq,min_err_sq,max_err_sq,bound_value)
  bounds   evaluate the theory bound curve for one solver on one system
           (iteration,bound_value)

Exit codes: 0 on success, 2 on configuration errors (including malformed
inputs), 3 on numerical errors.
"""
from __future__ import annotations

import argparse
import sys
from contextlib import contextmanager

from .errors import ConfigurationError, NumericalError
from .harness import (
    ExperimentConfig,
    _bound_evaluator,
    compare_solvers,
    emit_csv,
    emit_timings_csv,
    print_timing_summary,
    trial_rng,
)
from .linalg import Regime
from .problems import GenSpec, TomoSpec, gen_gaussian, gen_tomography, save_system
from .sampling import check_seed
from .solvers import ConvergenceTrace, SolveConfig, SolverKind, StopMetric, run
from .theory import TheoryBound

_SOLVER_NAMES = {kind.value: kind for kind in SolverKind}
_REGIME_NAMES = {regime.value: regime for regime in Regime}
_STOP_NAMES = {metric.value: metric for metric in StopMetric}


@contextmanager
def _open_out(path: str):
    if path == "-":
        yield sys.stdout
    else:
        with open(path, "w", newline="\n") as fh:
            yield fh


def write_single_trace_csv(trace: ConvergenceTrace, fh) -> None:
    fh.write("trial,iteration,solver,error_sq,residual_sq\n")
    for it, err, res in trace.records:
        fh.write(f"{trace.trial},{it},{trace.solver.name},{err!r},{res!r}\n")


def _seed(text: str) -> int:
    """argparse type for --seed: an integer in [0, 2**64), rejected before any work."""
    try:
        return check_seed(int(text))
    except (ValueError, ConfigurationError) as exc:
        raise argparse.ArgumentTypeError(str(exc)) from exc


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
    p_gen.add_argument("--regime", choices=sorted(_REGIME_NAMES), required=True)
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
    p_solve.add_argument("--solver", choices=sorted(_SOLVER_NAMES), required=True)
    p_solve.add_argument("--stop-metric", choices=sorted(_STOP_NAMES), default="error")
    p_solve.add_argument("--trial", type=int, default=0, help="trial index (seeds the stream)")
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
    p_cmp.add_argument("--timings-out", default=None, help="optional wall-clock CSV path")
    _add_common(p_cmp)

    p_bounds = sub.add_parser("bounds", help="theory bound curve for one solver")
    p_bounds.add_argument("--system", required=True)
    p_bounds.add_argument("--solver", choices=sorted(_SOLVER_NAMES), required=True)
    _add_common(p_bounds)

    return parser


def _cmd_gen(args) -> int:
    spec = GenSpec(
        m=args.m,
        n=args.n,
        regime=_REGIME_NAMES[args.regime],
        seed=args.seed,
        noise_scale=args.noise_scale,
    )
    system = gen_gaussian(spec)
    save_system(system, args.out, extra_meta={"kind": "gaussian", "noise_scale": args.noise_scale})
    print(f"wrote {system.m}x{system.n} {system.regime.value} system to {args.out}")
    return 0


def _cmd_tomo(args) -> int:
    spec = TomoSpec(grid_n=args.grid_n, oversample=args.oversample, seed=args.seed)
    system = gen_tomography(spec)
    save_system(
        system,
        args.out,
        extra_meta={
            "kind": "tomography",
            "grid_n": args.grid_n,
            "oversample": args.oversample,
        },
    )
    print(f"wrote {system.m}x{system.n} tomography system to {args.out}")
    return 0


def _cmd_solve(args) -> int:
    from .problems import load_system

    system = load_system(args.system)
    config = SolveConfig(
        max_iter=args.max_iter,
        tol=args.tol,
        stop_metric=_STOP_NAMES[args.stop_metric],
        record_every=args.record_every,
    )
    kind = _SOLVER_NAMES[args.solver]
    trace = run(system, kind, config, trial_rng(args.seed, kind, args.trial), trial=args.trial)
    with _open_out(args.out) as fh:
        write_single_trace_csv(trace, fh)
    status = "converged" if trace.converged else "did not converge"
    print(f"{kind.name} {status} at iteration {trace.final_iteration}", file=sys.stderr)
    return 0


def _parse_solver_list(text: str) -> list[SolverKind]:
    kinds = []
    for name in text.split(","):
        name = name.strip().lower()
        if not name:
            continue
        if name not in _SOLVER_NAMES:
            raise ConfigurationError(f"unknown solver {name!r}; choose from rk,rgs,rek,regs")
        kinds.append(_SOLVER_NAMES[name])
    if not kinds:
        raise ConfigurationError("empty solver list")
    return kinds


def _cmd_compare(args) -> int:
    cfg = ExperimentConfig(
        system_dir=args.system,
        solvers=_parse_solver_list(args.solvers),
        trials=args.trials,
        max_iter=args.max_iter,
        tol=args.tol,
        base_seed=args.seed,
        record_every=args.record_every,
        redraw_matrix_per_trial=args.redraw_per_trial,
        workers=args.workers,
    )
    trace = compare_solvers(cfg)
    with _open_out(args.out) as fh:
        emit_csv(trace, fh)
    if args.timings_out:
        emit_timings_csv(trace, args.timings_out)
    print_timing_summary(trace, sys.stderr)
    return 0


def _cmd_bounds(args) -> int:
    from .problems import load_system

    system = load_system(args.system)
    tb = TheoryBound.from_system(system)
    evaluate = _bound_evaluator(system, _SOLVER_NAMES[args.solver], tb)
    with _open_out(args.out) as fh:
        fh.write("iteration,bound_value\n")
        for t in range(0, args.max_iter + 1, args.record_every):
            fh.write(f"{t},{evaluate(t)!r}\n")
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
    except ConfigurationError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except NumericalError as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
