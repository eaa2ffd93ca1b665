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
(``problems.redraw``). Either way a solver runs one ``run_batch`` per
distinct system: every trial on the shared system, or each trial alone on
its redrawn one. ``bound_value`` is the mean over the distinct systems of
each one's own bound (a lone bound divided by 1 is the same float), so it
bounds the mean error where they do. Each system's bound constants are
``TheoryBound.from_system``'s, as for ``kaczgs bounds``, so a system that
``bounds`` rejects fails the experiment with the same error.

The four CSV writers each take an open text file and write LF line
endings and full-precision (repr) decimals:

    emit_csv          iteration,solver,mean_err_sq,median_err_sq,min_err_sq,max_err_sq,bound_value
    emit_timings_csv  iteration,solver,mean_cum_seconds
    emit_trace_csv    trial,iteration,solver,error_sq,residual_sq
    emit_bounds_csv   iteration,bound_value

``emit_bounds_csv`` evaluates the curve BOUNDS_CHUNK grid rows at a time,
formats each distinct value of a chunk once (told apart by its bits, so
-0.0 stays -0.0) and writes the chunk with one join and one write. Its
bytes are still ``repr(bound(t))`` on every row. The REK and REGS curves
decay as alpha^floor(t/2), so at a stride of 1 about half their rows repeat
the row before (REGS on gen oc 500x20 seed 1: 10 990 distinct values in
20 001 rows), and tiny values, such as that curve's 9.2e-144 at t = 20000,
take about a microsecond each to format. ``emit_csv`` keeps its row loop:
its error columns hardly repeat, and on the 1546-row compare of gen oc
500x20 a column-wise writer with the same per-value formatting took 7.4 ms
against the loop's 6.5 ms.

Determinism contract: the aggregate CSV bytes are a pure function of
(config, system files) on one machine at one BLAS thread count
(OpenBLAS's Gram products can round differently at 1 thread than at 2).
Wall-clock measurements for the CPU-time comparison are no such
function, so they are kept out of it.
"""
from __future__ import annotations

from array import array
from collections.abc import Callable
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from .errors import ConfigurationError
from .linalg import LinearSystem
from .problems import load_system, redraw
from .sampling import Prng, check_seed, spawn_trial_rng
from .solvers import (
    CONVERGENT_PAIRS,
    BatchTrace,
    ConvergenceTrace,
    SolveConfig,
    SolverKind,
    _pairs_help,
    _require_reference,
    run_batch,
)
from .theory import TheoryBound

CSV_HEADER = "iteration,solver,mean_err_sq,median_err_sq,min_err_sq,max_err_sq,bound_value"

_KIND_ORDINAL = {kind: i for i, kind in enumerate(SolverKind)}
#: from this trial on, a stream index trial * 4 + ordinal would reach 2**64
_TRIAL_LIMIT = 2**64 // len(SolverKind)
_REDRAW_STREAM_BASE = 1 << 32  # generator seed streams, disjoint from solver streams
#: grid rows per write of ``emit_bounds_csv``: its memory is one chunk's text, not the curve's
BOUNDS_CHUNK = 1024


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


def _trial_systems(cfg: ExperimentConfig, system: LinearSystem) -> list[LinearSystem]:
    """The system of each trial, shared by every solver: ``system``, or one redraw per trial."""
    if not cfg.redraw_matrix_per_trial:
        return [system] * cfg.trials
    seeds = [spawn_trial_rng(cfg.base_seed, _REDRAW_STREAM_BASE + t).seed for t in range(cfg.trials)]
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


def _stacked(batches: list[BatchTrace]) -> tuple[np.ndarray, np.ndarray]:
    """(errors of every trial, mean cumulative seconds) on the widest batch's grid.

    A narrower batch is padded forward: each trial with its terminal error,
    the clock with its last read. One batch's arrays are used as they are,
    so a shared system's (trials, grid) errors are never copied.
    """
    if len(batches) == 1:
        return batches[0].errors, batches[0].mean_cum_seconds
    width = max(b.errors.shape[1] for b in batches)
    errs = np.concatenate([
        np.hstack([b.errors, np.repeat(b.final_errors[:, None], width - b.errors.shape[1], 1)])
        for b in batches
    ])
    secs = np.mean([np.pad(b.mean_cum_seconds, (0, width - b.errors.shape[1]), mode="edge")
                    for b in batches], axis=0)
    return errs, secs


def run_experiment(cfg: ExperimentConfig, system: LinearSystem | None = None) -> AggregateTrace:
    """Execute trials x solvers runs and aggregate on the shared grid."""
    if system is None:
        system = load_system(cfg.system_dir)
    systems = _trial_systems(cfg, system)
    distinct = systems if cfg.redraw_matrix_per_trial else [system]
    for s in distinct:  # a system without a reference gets the error that lists the pairs
        _require_reference(s)
    theories = [TheoryBound.from_system(s) for s in distinct]
    solve_cfg = cfg.solve_config()

    rows = []
    timing_rows = []
    for kind in cfg.solvers:
        bounds = [tb.curve(kind) for tb in theories]
        rngs = [trial_rng(cfg.base_seed, kind, trial) for trial in range(cfg.trials)]
        # trial k runs on distinct[k % len(distinct)]
        errs, mean_cum = _stacked([run_batch(s, kind, solve_cfg, rngs[i::len(distinct)])
                                   for i, s in enumerate(distinct)])
        grid = range(0, errs.shape[1] * cfg.record_every, cfg.record_every)
        medians = np.median(errs, axis=0)
        mins = errs.min(axis=0)
        maxs = errs.max(axis=0)
        # clamp away 1-ulp float drift so the band invariant min<=mean<=max is exact
        means = np.clip(errs.mean(axis=0), mins, maxs)
        # the distinct systems' bounds summed at each grid point; map and zip loop in C,
        # where a generator per row would add about 0.5 us a row
        bound_sums = map(sum, zip(*(map(b, grid) for b in bounds)))
        # the column lists are freed with this statement, before the next solver's
        # batch allocates: kept alive across it, they fragment the heap
        rows.extend(
            (g, kind, mean, median, mn, mx, float(total / len(bounds)))
            for g, mean, median, mn, mx, total in zip(
                grid, means.tolist(), medians.tolist(), mins.tolist(), maxs.tolist(), bound_sums
            )
        )
        timing_rows.extend((g, kind, sec) for g, sec in zip(grid, mean_cum.tolist()))
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


def _reprs(values: list[float]) -> list[str]:
    """``list(map(repr, values))``, calling ``repr`` once per distinct float.

    Floats are told apart by their bits: keyed on the float, -0.0 would take
    0.0's text, since the two compare equal.
    """
    bits = memoryview(array("d", values)).cast("B").cast("q").tolist()
    one_each = dict(zip(bits, values))
    if len(one_each) == len(values):  # no repeats: the lookups would cost more than they save
        return list(map(repr, values))
    text = dict(zip(one_each, map(repr, one_each.values())))
    return list(map(text.__getitem__, bits))


def emit_bounds_csv(bound: Callable[[int], float], cfg: SolveConfig, fh) -> None:
    """Write a bound curve (iteration,bound_value) on compare's grid.

    The rows are t = 0, record_every, 2 record_every, ... up to the last
    multiple of record_every that is at most max_iter, which is max_iter
    itself only when record_every divides it. The chunks are cut at their
    first t and never by ``len``: at max_iter 10**30 and stride 1 the grid
    has more rows than ``len`` can count.
    """
    fh.write("iteration,bound_value\n")
    stride, end = cfg.record_every, cfg.max_iter + 1
    for first in range(0, end, stride * BOUNDS_CHUNK):
        grid = range(first, min(first + stride * BOUNDS_CHUNK, end), stride)
        # one expression, so no chunk's lists outlive its write
        fh.write("".join(
            [f"{t},{text}\n" for t, text in zip(grid, _reprs(list(map(bound, grid))))]
        ))


def print_timing_summary(trace: AggregateTrace, stream) -> None:
    # a solver's mean cumulative time never decreases along its grid, so its last is its total
    totals = {kind: sec for _, kind, sec in trace.timings}
    for kind, sec in totals.items():
        print(f"{kind.name}: ~{sec:.3f}s mean wall-clock per trial", file=stream)
    if trace.excluded:
        names = ", ".join(k.name for k in trace.excluded)
        print(f"excluded (wrong-limit pairs): {names}", file=stream)
