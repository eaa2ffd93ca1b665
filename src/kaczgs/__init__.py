"""Randomized Kaczmarz and Gauss-Seidel solvers with their extended variants.

Each name is imported from its module: ``linalg`` (dense systems, direct
reference solutions), ``sampling`` (deterministic seeded sampling), ``solvers``
(the four kernels and their drivers ``run`` and ``run_batch``), ``theory``
(convergence bounds), ``problems`` (reproducible generators), ``harness``
(multi-trial experiments) and ``errors``. The root re-exports none of them,
so importing one module loads only what that module uses. ``kaczgs.cli`` is
the entry point of the ``kaczgs`` console script.
"""

__version__ = "0.1.0"
