"""Multi-trial experiment orchestration and every CSV the tools write.

An experiment runs `trials` independent, deterministically seeded runs per
solver on one system, aggregates the error traces on a shared iteration
grid (stride = record_every; trials that converge early repeat their
terminal value forward), and attaches the matching theory bound per
solver/regime.

Every trial stops on its squared error to the system's reference, so the
system needs one. All trials of a solver on one shared system are one
``solvers.run_batch``, which runs them in lockstep from
``solvers.LOCKSTEP_MIN_TRIALS`` trials. A batched trial is bit for bit the
``run`` (and so the ``kaczgs solve``) of the same trial, so the lockstep
threshold changes the speed only, never a CSV byte. The wall-clock
companion table holds the batch's time divided by the number of trials,
an amortized per-trial time, read once a span and interpolated by step
count at the grid points inside it (``solvers.BatchTrace``). Trials run
in one thread. A per-trial redraw draws each trial's system once, for
every solver, from the generator recorded in the system directory
(``problems.redraw``), and runs each trial as a batch of one on its
system; ``bound_value`` is then the mean over trials of each redrawn
system's own bound, so it bounds the mean error where they do.

The four CSV writers each take an open text file and write LF line
endings and full-precision (repr) decimals:

    emit_csv          iteration,solver,mean_err_sq,median_err_sq,min_err_sq,max_err_sq,bound_value
    emit_timings_csv  iteration,solver,mean_cum_seconds
    emit_trace_csv    trial,iteration,solver,error_sq,residual_sq
    emit_bounds_csv   iteration,bound_value

Determinism contract: the aggregate CSV bytes are a pure function of
(config, system files). Wall-clock measurements for the CPU-time
comparison are kept out of it for exactly this reason.
"""
from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from .errors import ConfigurationError
from .linalg import LinearSystem, Regime
from .problems import load_system, redraw
from .sampling import Prng, check_seed, spawn_trial_rng, splitmix64
from .solvers import (
    CONVERGENT_PAIRS,
    ConvergenceTrace,
    SolveConfig,
    SolverKind,
    _pairs_help,
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
#: from this trial on, a stream index trial * 4 + ordinal would reach 2**64
_TRIAL_LIMIT = 2**64 // len(SolverKind)
_REDRAW_STREAM_BASE = 1 << 32  # generator seed streams, disjoint from solver streams


@dataclass
class ExperimentConfig:
    """Configuration of one multi-trial experiment."""

    system_dir: str | Path
    solvers: list[SolverKind]
    trials: int = 50
    max_iter: int = 100_000
    tol: float = 1e-6
    base_seed: int = 0
    record_every: int = 1
    redraw_matrix_per_trial: bool = False

    def __post_init__(self):
        check_seed(self.base_seed)
        if not self.solvers:
            raise ConfigurationError("at least one solver is required")
        if len(set(self.solvers)) < len(self.solvers):
            names = ",".join(k.value for k in self.solvers)
            raise ConfigurationError(f"each solver may be given once, got {names}")
        if self.trials < 1:
            raise ConfigurationError(f"trials must be >= 1, got {self.trials}")
        self.solve_config()  # checks max_iter, tol and record_every before any work

    def solve_config(self) -> SolveConfig:
        return SolveConfig(max_iter=self.max_iter, tol=self.tol, record_every=self.record_every)


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
        return lambda t: bound_rk_consistent(tb, t, tb.rgs_init)
    if kind is SolverKind.REK:
        return lambda t: bound_rek(tb, t, ref_sq)
    return lambda t: bound_regs(tb, t, ref_sq)


def solver_bound(system: LinearSystem, kind: SolverKind) -> Callable[[int], float]:
    """t -> bound_value of one solver on one system; the theory set-up runs on the call."""
    return _bound_evaluator(system, kind, TheoryBound.from_system(system))


def _theory_bound(system: LinearSystem) -> TheoryBound | None:
    try:
        return TheoryBound.from_system(system)
    except ConfigurationError:
        return None


def _trial_systems(cfg: ExperimentConfig, system: LinearSystem) -> list[LinearSystem]:
    """The system of each trial, shared by every solver: ``system``, or one redraw per trial."""
    if not cfg.redraw_matrix_per_trial:
        return [system] * cfg.trials
    seeds = [splitmix64((cfg.base_seed + _REDRAW_STREAM_BASE + trial) & 0xFFFFFFFFFFFFFFFF)[1]
             for trial in range(cfg.trials)]
    return [redraw(cfg.system_dir, system, seed) for seed in seeds]


def trial_rng(base_seed: int, kind: SolverKind, trial: int) -> Prng:
    """The generator of one solver's trial: one stream per (trial, solver) pair.

    The stream index is never reduced mod 2**64: trial 2**62 would silently
    alias trial 0.
    """
    if trial < 0:
        raise ConfigurationError(f"trial must be >= 0, got {trial}")
    if trial >= _TRIAL_LIMIT:
        raise ConfigurationError(f"trial must be < {_TRIAL_LIMIT}, got {trial}")
    return spawn_trial_rng(base_seed, trial * len(SolverKind) + _KIND_ORDINAL[kind])


def _trials_on_grid(
    cfg: ExperimentConfig, systems: list[LinearSystem], kind: SolverKind
) -> tuple[list[int], np.ndarray, np.ndarray]:
    """(grid, errors of shape (trials, grid), mean cumulative seconds per grid point).

    Under a per-trial redraw each trial is a batch of one, whose grid is
    padded forward with its terminal error and its clock with its last read.
    """
    solve_cfg = cfg.solve_config()
    rngs = [trial_rng(cfg.base_seed, kind, trial) for trial in range(cfg.trials)]
    if cfg.redraw_matrix_per_trial:
        batches = [run_batch(s, kind, solve_cfg, [rng]) for s, rng in zip(systems, rngs)]
        width = max(b.errors.shape[1] for b in batches)
        errs = np.array([np.pad(b.errors[0], (0, width - b.errors.shape[1]),
                                constant_values=b.final_errors[0]) for b in batches])
        secs = np.mean([np.pad(b.mean_cum_seconds, (0, width - b.errors.shape[1]), mode="edge")
                        for b in batches], axis=0)
    else:
        batch = run_batch(systems[0], kind, solve_cfg, rngs)
        errs, secs = batch.errors, batch.mean_cum_seconds
    return list(range(0, errs.shape[1] * cfg.record_every, cfg.record_every)), errs, secs


def run_experiment(cfg: ExperimentConfig, system: LinearSystem | None = None) -> AggregateTrace:
    """Execute trials x solvers runs and aggregate on the shared grid."""
    if system is None:
        system = load_system(cfg.system_dir)
    systems = _trial_systems(cfg, system)
    distinct = systems if cfg.redraw_matrix_per_trial else [system]
    theories = [(s, _theory_bound(s)) for s in distinct]

    rows = []
    timing_rows = []
    for kind in cfg.solvers:
        grid, errs, mean_cum = _trials_on_grid(cfg, systems, kind)
        bounds = [_bound_evaluator(s, kind, tb) for s, tb in theories]
        # a lone bound is used as it is; redrawn systems' bounds are averaged
        bound_fn = (bounds[0] if len(bounds) == 1
                    else lambda t: sum(b(t) for b in bounds) / len(bounds))
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
    excluded up front (they would spin to max_iter with a wrong limit); the
    exclusions are reported on the returned trace.
    """
    if system is None:
        system = load_system(cfg.system_dir)
    kept, excluded = [], []
    for kind in cfg.solvers:
        if (kind, system.regime) not in CONVERGENT_PAIRS:
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


# ---------------------------------------------------------------------------
# CSV writers: each writes one schema to an open text file, LF line endings


def emit_csv(trace: AggregateTrace, fh) -> None:
    """Write the aggregate trace of ``compare``."""
    fh.write(CSV_HEADER + "\n")
    for it, kind, mean, median, mn, mx, bound in trace.rows:
        fh.write(f"{it},{kind.name},{mean!r},{median!r},{mn!r},{mx!r},{bound!r}\n")


def emit_timings_csv(trace: AggregateTrace, fh) -> None:
    """Write the wall-clock companion table (iteration,solver,mean_cum_seconds)."""
    fh.write("iteration,solver,mean_cum_seconds\n")
    for it, kind, sec in trace.timings:
        fh.write(f"{it},{kind.name},{sec!r}\n")


def emit_trace_csv(trace: ConvergenceTrace, fh) -> None:
    """Write one run's history (trial,iteration,solver,error_sq,residual_sq)."""
    fh.write("trial,iteration,solver,error_sq,residual_sq\n")
    for it, err, res in trace.records:
        fh.write(f"{trace.trial},{it},{trace.solver.name},{err!r},{res!r}\n")


def emit_bounds_csv(bound: Callable[[int], float], cfg: SolveConfig, fh) -> None:
    """Write a bound curve (iteration,bound_value) at t = 0, record_every, ..., max_iter."""
    fh.write("iteration,bound_value\n")
    for t in range(0, cfg.max_iter + 1, cfg.record_every):
        fh.write(f"{t},{bound(t)!r}\n")


def print_timing_summary(trace: AggregateTrace, stream) -> None:
    totals: dict[SolverKind, float] = {}
    for it, kind, sec in trace.timings:
        totals[kind] = max(totals.get(kind, 0.0), sec)
    for kind, sec in totals.items():
        print(f"{kind.name}: ~{sec:.3f}s mean wall-clock per trial", file=stream)
    if trace.excluded:
        names = ", ".join(k.name for k in trace.excluded)
        print(f"excluded (wrong-limit pairs): {names}", file=stream)
