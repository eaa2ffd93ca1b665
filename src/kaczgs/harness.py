"""Multi-trial experiment orchestration and CSV emission.

An experiment runs `trials` independent, deterministically seeded runs per
solver on one system, aggregates the error traces on a shared iteration
grid (stride = record_every; trials that converge early repeat their
terminal value forward), and attaches the matching theory bound per
solver/regime.

Trials run one of two ways. With at least LOCKSTEP_MIN_TRIALS trials on one
shared system (no per-trial redraw) and error-to-reference stopping, all
trials of a solver advance together as one block (``solvers.run_batch``),
which spreads the interpreter's per-step cost over the trials. Otherwise
each trial is its own ``solvers.run``, which is faster for a handful of
trials. A batched trial is bit for bit the ``run`` (and so the ``kaczgs
solve``) of the same trial, so the path changes the speed only, never a
CSV byte. For batched runs the wall-clock companion table holds the
batch's time divided by the number of trials, an amortized per-trial time.
Trials run in one thread; the ``workers`` setting is validated but affects
neither scheduling nor output.

Output CSV schema (LF line endings, full-precision decimals):

    iteration,solver,mean_err_sq,median_err_sq,min_err_sq,max_err_sq,bound_value

Determinism contract: the CSV bytes are a pure function of (config, system
files), independent of the worker setting. Wall-clock measurements
for the CPU-time comparison are kept out of the canonical CSV for exactly
this reason.
"""
from __future__ import annotations

import sys
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from .errors import ConfigurationError
from .linalg import LinearSystem, Regime
from .problems import GenSpec, TomoSpec, gen_gaussian, gen_tomography, load_meta, load_system
from .sampling import Prng, check_seed, spawn_trial_rng, splitmix64
from .solvers import (
    CONVERGENT_PAIRS,
    SolveConfig,
    SolverKind,
    StopMetric,
    _pairs_help,
    run,
    run_batch,
)
from .theory import (
    TheoryBound,
    bound_regs,
    bound_rek,
    bound_rk_consistent,
    bound_rk_inconsistent,
)

CSV_HEADER = "iteration,solver,mean_err_sq,median_err_sq,min_err_sq,max_err_sq,bound_value"

_KIND_ORDINAL = {kind: i for i, kind in enumerate(SolverKind)}
_REDRAW_STREAM_BASE = 1 << 32  # generator seed streams, disjoint from solver streams

#: from this many trials per solver on one shared system, trials run in lockstep.
#: Against the per-trial loop the batch breaks even near 2 trials on 500x20 and
#: 3-4 on 600x60 and 100x300 (a batch of one is 1.4-2.3x slower); 8 keeps a margin.
LOCKSTEP_MIN_TRIALS = 8


@dataclass
class ExperimentConfig:
    """Configuration of one multi-trial experiment."""

    system_dir: str | Path
    solvers: list[SolverKind]
    trials: int = 50
    max_iter: int = 100_000
    tol: float = 1e-6
    stop_metric: StopMetric = StopMetric.ERROR_TO_REFERENCE
    base_seed: int = 0
    record_every: int = 1
    redraw_matrix_per_trial: bool = False
    workers: int = 1  # validated; has no effect on scheduling or output

    def __post_init__(self):
        check_seed(self.base_seed)
        if not self.solvers:
            raise ConfigurationError("at least one solver is required")
        if self.trials < 1:
            raise ConfigurationError(f"trials must be >= 1, got {self.trials}")
        if self.workers < 1:
            raise ConfigurationError(f"workers must be >= 1, got {self.workers}")

    def solve_config(self) -> SolveConfig:
        return SolveConfig(
            max_iter=self.max_iter,
            tol=self.tol,
            stop_metric=self.stop_metric,
            record_every=self.record_every,
        )


@dataclass
class AggregateTrace:
    """Aggregated rows (iteration, solver, mean/median/min/max error, bound)."""

    rows: list[tuple[int, SolverKind, float, float, float, float, float]]
    excluded: list[SolverKind] = field(default_factory=list)
    timings: list[tuple[int, SolverKind, float]] = field(default_factory=list)


def _bound_evaluator(system: LinearSystem, kind: SolverKind, tb: TheoryBound | None):
    """t -> bound_value for one solver on one system; NaN where no bound applies.

    The one place that pairs each (solver, regime) with its bound, read by
    ``compare`` and ``bounds`` alike.
    """
    if tb is None or system.reference is None:
        return lambda t: float("nan")
    ref = system.reference
    ref_sq = float(ref @ ref)
    regime = system.regime
    if kind is SolverKind.RK:
        if regime is Regime.OVER_INCONSISTENT:
            return lambda t: bound_rk_inconsistent(tb, t, ref_sq)
        return lambda t: bound_rk_consistent(tb, t, ref_sq)
    if kind is SolverKind.RGS:
        if regime is Regime.UNDERDETERMINED:
            return lambda t: float("nan")  # wrong-limit pair: no valid envelope
        return lambda t: bound_rk_consistent(tb, t, ref_sq)
    if kind is SolverKind.REK:
        return lambda t: bound_rek(tb, t, ref_sq)
    return lambda t: bound_regs(tb, t, ref_sq)


def _redraw_system(cfg: ExperimentConfig, base: LinearSystem, trial: int) -> LinearSystem:
    meta = load_meta(cfg.system_dir)
    kind = meta.get("kind")
    _, seed = splitmix64((cfg.base_seed + _REDRAW_STREAM_BASE + trial) & 0xFFFFFFFFFFFFFFFF)
    if kind == "gaussian":
        spec = GenSpec(
            m=base.m,
            n=base.n,
            regime=base.regime,
            seed=seed,
            noise_scale=float(meta.get("noise_scale", 1.0)),
        )
        return gen_gaussian(spec)
    if kind == "tomography":
        spec = TomoSpec(
            grid_n=int(meta["grid_n"]), oversample=int(meta["oversample"]), seed=seed
        )
        return gen_tomography(spec)
    raise ConfigurationError(
        "redraw_matrix_per_trial requires generator metadata (kind gaussian|tomography) "
        f"in {Path(cfg.system_dir) / 'meta.txt'}"
    )


def trial_rng(base_seed: int, kind: SolverKind, trial: int) -> Prng:
    """The generator of one solver's trial: one stream per (trial, solver) pair."""
    return spawn_trial_rng(base_seed, trial * len(SolverKind) + _KIND_ORDINAL[kind])


def _lockstep(cfg: ExperimentConfig) -> bool:
    return (
        cfg.trials >= LOCKSTEP_MIN_TRIALS
        and not cfg.redraw_matrix_per_trial
        and cfg.stop_metric is StopMetric.ERROR_TO_REFERENCE
    )


def _values_on_grid(iterations: list[int], values: list[float], grid: list[int]) -> list[float]:
    by_iter = dict(zip(iterations, values))
    terminal_iter, terminal = iterations[-1], values[-1]
    out = []
    for g in grid:
        if g <= terminal_iter and g in by_iter:
            out.append(by_iter[g])
        else:
            out.append(terminal)  # converged early: repeat terminal value forward
    return out


def _trials_on_grid(
    cfg: ExperimentConfig, system: LinearSystem, kind: SolverKind
) -> tuple[list[int], np.ndarray, np.ndarray]:
    """(grid, errors of shape (trials, grid), mean cumulative seconds per grid point)."""
    stride = cfg.record_every
    solve_cfg = cfg.solve_config()
    if _lockstep(cfg):
        rngs = [trial_rng(cfg.base_seed, kind, trial) for trial in range(cfg.trials)]
        batch = run_batch(system, kind, solve_cfg, rngs)
        grid = list(range(0, batch.errors.shape[1] * stride, stride))
        return grid, batch.errors, batch.mean_cum_seconds
    traces = [
        run(
            _redraw_system(cfg, system, trial) if cfg.redraw_matrix_per_trial else system,
            kind,
            solve_cfg,
            trial_rng(cfg.base_seed, kind, trial),
            trial=trial,
            residuals=False,
        )
        for trial in range(cfg.trials)
    ]
    max_final = max(tr.final_iteration for tr in traces)
    grid = list(range(0, max_final - max_final % stride + 1, stride))
    errs, secs = [], []
    for tr in traces:
        its = [rec[0] for rec in tr.records]
        errs.append(_values_on_grid(its, [rec[1] for rec in tr.records], grid))
        secs.append(_values_on_grid(its, tr.seconds, grid))
    return grid, np.array(errs), np.array(secs).mean(axis=0)


def run_experiment(cfg: ExperimentConfig, system: LinearSystem | None = None) -> AggregateTrace:
    """Execute trials x solvers runs and aggregate on the shared grid."""
    if system is None:
        system = load_system(cfg.system_dir)
    if cfg.stop_metric is StopMetric.ERROR_TO_REFERENCE and system.reference is None:
        raise ConfigurationError(
            "system has no reference solution for error-based stopping; "
            f"convergent solver/regime pairs: {_pairs_help()}"
        )
    try:
        tb = TheoryBound.from_system(system)
    except ConfigurationError:
        tb = None

    rows = []
    timing_rows = []
    for kind in cfg.solvers:
        grid, errs, mean_cum = _trials_on_grid(cfg, system, kind)
        bound_fn = _bound_evaluator(system, kind, tb)
        medians = np.median(errs, axis=0)
        mins = errs.min(axis=0)
        maxs = errs.max(axis=0)
        # clamp away 1-ulp float drift so the band invariant min<=mean<=max is exact
        means = np.clip(errs.mean(axis=0), mins, maxs)
        for gi, g in enumerate(grid):
            rows.append(
                (
                    g,
                    kind,
                    float(means[gi]),
                    float(medians[gi]),
                    float(mins[gi]),
                    float(maxs[gi]),
                    float(bound_fn(g)),
                )
            )
        timing_rows.extend((g, kind, float(sec)) for g, sec in zip(grid, mean_cum))
    return AggregateTrace(rows=rows, timings=timing_rows)


def compare_solvers(
    cfg: ExperimentConfig, system: LinearSystem | None = None
) -> AggregateTrace:
    """Run several solvers on one shared system, with wall-clock tracking.

    Solver/regime pairs that do not converge to the regime's reference are
    excluded up front when stopping on error-to-reference (they would spin
    to max_iter with a wrong limit); the exclusions are reported on the
    returned trace.
    """
    if system is None:
        system = load_system(cfg.system_dir)
    kept, excluded = [], []
    for kind in cfg.solvers:
        if (
            cfg.stop_metric is StopMetric.ERROR_TO_REFERENCE
            and (kind, system.regime) not in CONVERGENT_PAIRS
        ):
            excluded.append(kind)
        else:
            kept.append(kind)
    if not kept:
        raise ConfigurationError(
            f"no requested solver converges on a {system.regime.value} system; "
            f"convergent pairs: {_pairs_help()}"
        )
    trace = run_experiment(replace(cfg, solvers=kept), system=system)
    trace.excluded = excluded
    return trace


def emit_csv(trace: AggregateTrace, target) -> None:
    """Write the aggregate trace; target is a path or an open text file."""
    if hasattr(target, "write"):
        _write_csv(trace, target)
        return
    with open(target, "w", newline="\n") as fh:
        _write_csv(trace, fh)


def _write_csv(trace: AggregateTrace, fh) -> None:
    fh.write(CSV_HEADER + "\n")
    for it, kind, mean, median, mn, mx, bound in trace.rows:
        fh.write(
            f"{it},{kind.name},{mean!r},{median!r},{mn!r},{mx!r},{bound!r}\n"
        )


def emit_timings_csv(trace: AggregateTrace, target) -> None:
    """Write the wall-clock companion table (iteration,solver,mean_cum_seconds)."""
    if hasattr(target, "write"):
        fh = target
        fh.write("iteration,solver,mean_cum_seconds\n")
        for it, kind, sec in trace.timings:
            fh.write(f"{it},{kind.name},{sec!r}\n")
        return
    with open(target, "w", newline="\n") as fh:
        emit_timings_csv(trace, fh)


def print_timing_summary(trace: AggregateTrace, stream=None) -> None:
    stream = stream or sys.stderr
    totals: dict[SolverKind, float] = {}
    for it, kind, sec in trace.timings:
        totals[kind] = max(totals.get(kind, 0.0), sec)
    for kind, sec in totals.items():
        print(f"{kind.name}: ~{sec:.3f}s mean wall-clock per trial", file=stream)
    if trace.excluded:
        names = ", ".join(k.name for k in trace.excluded)
        print(f"excluded (wrong-limit pairs): {names}", file=stream)

