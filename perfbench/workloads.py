"""The three benchmark workloads and the kaczgs command lines they issue.

Each workload is one pipeline, run closed-loop in one process: cycles of
the generator command (which writes a system directory), then ``compare``
-> ``solve`` -> ``bounds`` on that directory, run back to back until the
measuring window ends.  The workload seed feeds the
generator's ``--seed`` and the ``--seed`` of ``compare`` and ``solve``;
nothing else about the inputs depends on it.  Why each workload exists is
written in ``DESIGN.md`` and in the ``why`` field of ``BENCHMARK.json``.
"""
from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Workload:
    name: str
    gen: tuple[str, ...]  # generator argv, without --seed/--out
    compare: dict  # compare flags (solvers, trials, record_every, max_iter, tol)
    excluded: frozenset  # solvers compare must drop as wrong-limit pairs
    compare_to_cap: bool  # True: every trial must reach max_iter; False: every trial stops before it
    solve: dict  # solve flags (solver, stop_metric, max_iter, record_every, tol); always runs to its cap
    bounds: dict  # bounds flags (solver, max_iter, record_every)

    def gen_argv(self, seed: int, out: str) -> list[str]:
        return [*self.gen, "--seed", str(seed), "--out", out]

    def compare_argv(self, system: str, seed: int, out: str) -> list[str]:
        c = self.compare
        return [
            "compare", "--system", system, "--solvers", c["solvers"],
            "--trials", str(c["trials"]), "--workers", "1",
            "--record-every", str(c["record_every"]), "--max-iter", str(c["max_iter"]),
            "--tol", repr(c["tol"]), "--seed", str(seed), "--out", out,
        ]

    def solve_argv(self, system: str, seed: int, out: str) -> list[str]:
        s = self.solve
        return [
            "solve", "--system", system, "--solver", s["solver"],
            "--stop-metric", s["stop_metric"], "--max-iter", str(s["max_iter"]),
            "--record-every", str(s["record_every"]), "--tol", repr(s["tol"]),
            "--seed", str(seed), "--out", out,
        ]

    def bounds_argv(self, system: str, out: str) -> list[str]:
        b = self.bounds
        return [
            "bounds", "--system", system, "--solver", b["solver"],
            "--max-iter", str(b["max_iter"]), "--record-every", str(b["record_every"]),
            "--out", out,
        ]


ALL_SOLVERS = "rk,rgs,rek,regs"

WORKLOADS = {
    w.name: w
    for w in (
        # Interpreter-bound: small system, many trials, every step recorded.
        Workload(
            name="oc-500x20-many",
            gen=("gen", "--m", "500", "--n", "20", "--regime", "over-consistent"),
            compare=dict(solvers=ALL_SOLVERS, trials=16, record_every=1, max_iter=20000, tol=1e-6),
            excluded=frozenset(),
            compare_to_cap=False,
            # tol sits below the float64 residual floor, so the run is fixed work
            solve=dict(solver="rek", stop_metric="residual", max_iter=10000, record_every=100, tol=1e-300),
            bounds=dict(solver="regs", max_iter=20000, record_every=1),
        ),
        # BLAS- and set-up-bound: rank check, Cholesky reference, text I/O,
        # and a full matvec per step in the residual-stopped solve.
        Workload(
            name="oi-600x60",
            gen=(
                "gen", "--m", "600", "--n", "60", "--regime", "over-inconsistent",
                "--noise-scale", "1.0",
            ),
            compare=dict(solvers=ALL_SOLVERS, trials=4, record_every=50, max_iter=20000, tol=1e-6),
            excluded=frozenset({"rk"}),
            compare_to_cap=False,
            # an inconsistent system's residual never falls below ||r_LS||^2 >> tol; RK's
            # own step is cheap, so its per-step residual matvec dominates the solve
            solve=dict(solver="rk", stop_metric="residual", max_iter=10000, record_every=100, tol=1e-6),
            bounds=dict(solver="regs", max_iter=20000, record_every=50),
        ),
        # Spectral-set-up-bound today (Jacobi on the 100x100 Gram); fixed-work
        # per-step cost with long rows once that set-up is cheap.
        Workload(
            name="tomo-10x3",
            gen=("tomo", "--grid-n", "10", "--oversample", "3"),
            compare=dict(solvers=ALL_SOLVERS, trials=2, record_every=100, max_iter=2000, tol=1e-6),
            excluded=frozenset({"rgs"}),
            compare_to_cap=True,
            # RGS is excluded from compare here; solve runs it on the maintained-residual
            # path, with tol below the float64 residual floor so the run is fixed work
            solve=dict(solver="rgs", stop_metric="residual", max_iter=20000, record_every=1000, tol=1e-300),
            bounds=dict(solver="regs", max_iter=2000, record_every=100),
        ),
    )
}
