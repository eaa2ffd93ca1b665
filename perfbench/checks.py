"""Output checks for every command the benchmark issues.

Each check returns a list of problems; an empty list means the output is
correct.  A command counts as one failed operation when it exits non-zero
or when its check returns any problem.  The schemas are written out here
rather than imported from the package, so a change to them is caught.
"""
from __future__ import annotations

import hashlib
import math
from pathlib import Path

COMPARE_HEADER = "iteration,solver,mean_err_sq,median_err_sq,min_err_sq,max_err_sq,bound_value"
SOLVE_HEADER = "trial,iteration,solver,error_sq,residual_sq"
BOUNDS_HEADER = "iteration,bound_value"
SOLVERS = ("RK", "RGS", "REK", "REGS")
T0_RTOL = 1e-12
FLOOR_RTOL = 1e-12


def sha256_file(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def read_vector(path) -> list[float]:
    """Read a system-directory vector file ("k" then k values)."""
    lines = Path(path).read_text().split()
    values = [float(v) for v in lines[1:]]
    if len(values) != int(lines[0]):
        raise ValueError(f"{path}: header says {lines[0]} values, found {len(values)}")
    return values


def _norm_sq(values) -> float:
    return math.fsum(v * v for v in values)


def _read_csv(path, header: str, width: int, problems: list) -> list[list[str]]:
    try:
        lines = Path(path).read_text().splitlines()
    except OSError as exc:
        problems.append(f"cannot read {path}: {exc}")
        return []
    if not lines or lines[0] != header:
        problems.append(f"{path}: header {lines[:1]} is not {header!r}")
        return []
    rows = [line.split(",") for line in lines[1:]]
    bad = [i + 2 for i, r in enumerate(rows) if len(r) != width]
    if bad:
        problems.append(f"{path}: lines {bad[:5]} do not have {width} fields")
        return []
    return rows


def check_system(directory, inconsistent: bool) -> list[str]:
    names = ["X.txt", "y.txt", "reference.txt", "meta.txt"]
    if inconsistent:
        names.append("residual.txt")
    return [f"generator did not write {n}" for n in names if not (Path(directory) / n).is_file()]


def check_compare(path, system_dir, workload) -> tuple[list[str], int]:
    """Check a compare CSV; returns (problems, bound_violations)."""
    problems: list[str] = []
    rows = _read_csv(path, COMPARE_HEADER, 7, problems)
    if not rows:
        return problems or [f"{path}: no rows"], 0
    cfg = workload.compare
    ref_sq = _norm_sq(read_vector(Path(system_dir) / "reference.txt"))
    by_solver: dict[str, list[tuple[int, float, float, float, float]]] = {}
    violations = 0
    for lineno, (it, solver, *vals) in enumerate(rows, start=2):
        try:
            t = int(it)
            mean, median, mn, mx, bound = (float(v) for v in vals)
        except ValueError:
            problems.append(f"line {lineno}: unparsable row")
            continue
        if solver not in SOLVERS:
            problems.append(f"line {lineno}: unknown solver {solver!r}")
            continue
        if not (mn <= median <= mx and mn <= mean <= mx):
            problems.append(f"line {lineno}: min/median/mean/max out of order")
        if not math.isnan(bound) and mean > bound:
            violations += 1
        by_solver.setdefault(solver, []).append((t, mean, median, mn, mx))

    requested = {s.upper() for s in cfg["solvers"].split(",")}
    expected = requested - {s.upper() for s in workload.excluded}
    if set(by_solver) != expected:
        problems.append(f"solvers present {sorted(by_solver)}, expected {sorted(expected)}")
    stride, cap = cfg["record_every"], cfg["max_iter"]
    for solver, srows in by_solver.items():
        iters = [r[0] for r in srows]
        if iters != list(range(0, iters[-1] + 1, stride)):
            problems.append(f"{solver}: iteration grid is not 0,{stride},...")
        t0 = srows[0]
        if iters[0] == 0 and any(abs(v - ref_sq) > T0_RTOL * ref_sq for v in t0[1:]):
            problems.append(f"{solver}: t=0 row {t0[1:]} differs from ||ref||^2 = {ref_sq!r}")
        last = srows[-1]
        if workload.compare_to_cap:
            if last[0] != cap or last[3] < cfg["tol"]:
                problems.append(f"{solver}: some trial stopped before --max-iter {cap}")
        elif last[0] >= cap:
            problems.append(f"{solver}: some trial reached --max-iter {cap}")
    return problems, violations


def check_solve(path, system_dir, workload) -> list[str]:
    problems: list[str] = []
    rows = _read_csv(path, SOLVE_HEADER, 5, problems)
    if not rows:
        return problems or [f"{path}: no rows"]
    cfg = workload.solve
    try:
        iters = [int(r[1]) for r in rows]
        final_res = float(rows[-1][4])
    except ValueError:
        return [f"{path}: unparsable row"]
    if {r[0] for r in rows} != {"0"} or {r[2] for r in rows} != {cfg["solver"].upper()}:
        problems.append("trial or solver column does not match the command")
    if iters != list(range(0, cfg["max_iter"] + 1, cfg["record_every"])):
        problems.append(f"iterations do not run 0..{cfg['max_iter']} by {cfg['record_every']}")
    if not final_res >= cfg["tol"]:
        problems.append(f"final residual_sq {final_res!r} fell below tol: not fixed work")
    residual_file = Path(system_dir) / "residual.txt"
    if residual_file.is_file():
        # a converged run sits on the floor, where the two norms differ by rounding
        floor = _norm_sq(read_vector(residual_file)) * (1.0 - FLOOR_RTOL)
        if not final_res >= floor:
            problems.append(f"final residual_sq {final_res!r} below ||residual_ref||^2 {floor!r}")
    return problems


def check_bounds(path, workload) -> list[str]:
    problems: list[str] = []
    rows = _read_csv(path, BOUNDS_HEADER, 2, problems)
    if not rows:
        return problems or [f"{path}: no rows"]
    cfg = workload.bounds
    try:
        iters = [int(r[0]) for r in rows]
        values = [float(r[1]) for r in rows]
    except ValueError:
        return [f"{path}: unparsable row"]
    if iters != list(range(0, cfg["max_iter"] + 1, cfg["record_every"])):
        problems.append(f"iterations do not run 0..{cfg['max_iter']} by {cfg['record_every']}")
    if not all(math.isfinite(v) for v in values):
        problems.append("non-finite bound value")
    rises = [iters[k + 1] for k in range(len(values) - 1) if values[k + 1] > values[k]]
    if rises:
        problems.append(f"bound increases at iterations {rises[:5]}")
    return problems
