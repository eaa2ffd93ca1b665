"""Randomized Kaczmarz and Gauss-Seidel solvers with their extended variants.

Library surface: dense systems and direct reference solutions (``linalg``),
deterministic seeded sampling (``sampling``), the four iterative kernels and
run driver (``solvers``), convergence-bound evaluators (``theory``),
reproducible problem generators (``problems``), and the multi-trial
experiment harness (``harness``). The ``kaczgs`` console script fronts the
generators, single runs, comparisons, and bound curves.
"""

from .errors import (
    ConfigurationError,
    KaczgsError,
    NumericalError,
    ParseError,
    SingularMatrixError,
)
from .linalg import (
    DenseMatrix,
    LinearSystem,
    Regime,
    SpectralSummary,
    least_norm_ref,
    least_squares_ref,
    spectral_summary,
)
from .sampling import Prng, WeightedIndex, col_distribution, row_distribution, spawn_trial_rng
from .solvers import (
    ConvergenceTrace,
    SolveConfig,
    SolverKind,
    StopMetric,
    run,
)
from .theory import (
    TheoryBound,
    bound_regs,
    bound_rek,
    bound_rk_consistent,
    bound_rk_inconsistent,
)
from .problems import (
    GenSpec,
    TomoSpec,
    gen_gaussian,
    gen_tomography,
    load_system,
    save_system,
)
from .harness import AggregateTrace, ExperimentConfig, compare_solvers, emit_csv, run_experiment

__version__ = "0.1.0"

__all__ = [
    "AggregateTrace",
    "ConfigurationError",
    "ConvergenceTrace",
    "DenseMatrix",
    "ExperimentConfig",
    "GenSpec",
    "KaczgsError",
    "LinearSystem",
    "NumericalError",
    "ParseError",
    "Prng",
    "Regime",
    "SingularMatrixError",
    "SolveConfig",
    "SolverKind",
    "SpectralSummary",
    "StopMetric",
    "TheoryBound",
    "TomoSpec",
    "WeightedIndex",
    "bound_regs",
    "bound_rek",
    "bound_rk_consistent",
    "bound_rk_inconsistent",
    "col_distribution",
    "compare_solvers",
    "emit_csv",
    "gen_gaussian",
    "gen_tomography",
    "least_norm_ref",
    "least_squares_ref",
    "load_system",
    "row_distribution",
    "run",
    "run_experiment",
    "save_system",
    "spawn_trial_rng",
    "spectral_summary",
]
