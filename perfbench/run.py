"""Benchmark of the kaczgs pipeline, end to end and layer by layer.

Run from the root of a checkout of the repository:

    python3 perfbench/run.py --workload oi-600x60 --seed 3 --seconds 35 --trace 0

One process runs one workload closed-loop and single-threaded: cycles of
the generator command (set-up), ``compare``, ``solve`` and ``bounds`` back
to back, each starting when the previous one ends, until ``--seconds``
have passed (at least one cycle).  Every command goes through
``kaczgs.cli.main(argv)`` in-process and every output is checked
(``checks.py``).  ``--trace 0`` times the commands with tracing off, after
one warm-up cycle, and reports for each the median of its wall time over
the SpeedLoop's time around it.  ``--trace 1`` runs half the window untraced, then
installs the layer tracer (``tracer.py``) and runs a traced set-up and
traced cycles, and reports per-layer metrics.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The lines before it
print every metric by name and unit, and the environment stamp.  A full
record (stamp, every sample, check failures) goes to
``.perfbench/results/``, spans of a traced run to ``.perfbench/spans/``.
"""
from __future__ import annotations

import argparse
import contextlib
import ctypes
import hashlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import sys
import time
import traceback
from collections import defaultdict
from pathlib import Path

# One BLAS thread, set before numpy is first imported: the benchmark is
# single-threaded, and BLAS threads on a shared machine with few cores time
# the scheduler.  A value already in the environment is kept.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import checks
from tracer import MODULES, HotStat, Tracer
from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".perfbench"
KINDS = ("rk", "rgs", "rek", "regs")
#: an untraced cycle repeats each command until it has run this long, so short
#: commands get more samples
REPEAT_SECONDS = 0.3
#: nominal time of one SpeedLoop pass: about its fastest on the 2-core Xeon
#: the benchmark was written on, so end-to-end times are of the order of
#: uncontended seconds on that machine
LOOP_NOMINAL_S = 1.5e-3


def import_package():
    """Import kaczgs from this checkout's src/, never from anywhere else."""
    src = ROOT / "src"
    if not (src / "kaczgs" / "cli.py").is_file():
        sys.exit(f"perfbench: {src / 'kaczgs'} not found; run from a checkout of the repository")
    sys.path.insert(0, str(src))
    import kaczgs.cli

    if Path(kaczgs.__file__).resolve().parent != (src / "kaczgs").resolve():
        sys.exit(f"perfbench: imported kaczgs from {kaczgs.__file__}, not from {src}")
    return kaczgs


# ---------------------------------------------------------------------------
# Environment stamp


def blas_threads():
    """Thread count of the OpenBLAS bundled with numpy, or None if not found."""
    import numpy as np

    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for path in sorted(libs.glob("*openblas*")):
        lib = ctypes.CDLL(str(path))
        for symbol in (
            "scipy_openblas_get_num_threads64_",
            "openblas_get_num_threads64_",
            "openblas_get_num_threads",
        ):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype, fn.argtypes = ctypes.c_int, []
                return int(fn())
    return None


def git_commit(root: Path):
    """Commit of a git checkout, read from .git without running git."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def source_sha256() -> str:
    h = hashlib.sha256()
    for path in sorted((ROOT / "src" / "kaczgs").rglob("*.py")):
        h.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def env_stamp(kaczgs, seed: int) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
        "blas_threads": blas_threads(),
        "blas_thread_env": {
            k: os.environ[k]
            for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
            if k in os.environ
        },
        "nproc": os.cpu_count(),
        "cpu_affinity": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "kaczgs": getattr(kaczgs, "__version__", None),
        "git_commit": git_commit(ROOT),
        "source_sha256": source_sha256(),
        "seed": seed,
        "argv": sys.argv,
    }


# ---------------------------------------------------------------------------
# Operations and their accounting


class SpeedLoop:
    """A fixed loop of the package's kinds of numpy work, timed around every command.

    Other tenants of a shared machine slow the whole process down by up to
    2x, in phases from under a second to over a minute long, and a run of
    tens of seconds cannot average them out.  A command's wall time divided
    by the loop's time around it is its cost in loop units, which those
    phases leave nearly unchanged; times LOOP_NOMINAL_S it reads in seconds.
    Each step mixes what the commands spend their time on: a Kaczmarz
    row step, a Jacobi rotation of two strided columns, and every tenth
    step a full matvec.  The loop is not part of the package, so no change
    to the package moves it.
    """

    STEPS = 200

    def __init__(self):
        import numpy as np

        rng = np.random.default_rng(0)
        self.matrix = rng.standard_normal((500, 50))
        self.rows = list(self.matrix)
        sym = rng.standard_normal((80, 80))
        self.sym = sym + sym.T
        self.x0 = np.zeros(50)
        self.samples: list[float] = []

    def __call__(self) -> float:
        matrix, rows, x, s = self.matrix, self.rows, self.x0.copy(), self.sym.copy()
        t0 = time.perf_counter()
        for i in range(self.STEPS):
            a = rows[i * 7 % len(rows)]
            x += (1.0 - float(a @ x)) * 1e-3 * a
            p, q = i % (len(s) - 1), i % (len(s) - 1) + 1
            c, sn = math.cos(1e-3 * i), math.sin(1e-3 * i)
            cp = c * s[:, p] - sn * s[:, q]
            cq = sn * s[:, p] + c * s[:, q]
            s[:, p], s[:, q] = cp, cq
            if i % 10 == 0:
                matrix @ x
        seconds = time.perf_counter() - t0
        self.samples.append(seconds)
        return seconds


class Tally:
    """Attempted and failed operations; an operation fails on any problem."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems: list[tuple[str, list[str]]] = []

    def record(self, label: str, problems: list[str]) -> bool:
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems.append((label, problems[:5]))
        return not problems


def run_cli(cli, argv: list[str], log) -> tuple[float, list[str]]:
    """Run one command in-process; returns (wall seconds, problems)."""
    with contextlib.redirect_stdout(log), contextlib.redirect_stderr(log):
        t0 = time.perf_counter()
        try:
            rc = cli.main(argv)
        except SystemExit as exc:  # argparse rejects bad flags this way
            rc = exc.code
        except Exception:  # a crash is one failed operation, not the end of the run
            traceback.print_exc(file=log)
            rc = "uncaught exception"
        seconds = time.perf_counter() - t0
    return seconds, ([] if rc == 0 else [f"{argv[0]} exited with {rc!r}"])


class Digests:
    """sha256 of every output, which must repeat for one seed, workload and source tree.

    Kept in .perfbench/digests.json, so the check spans every run made in a
    checkout, traced or not, as well as the cycles of one run.
    """

    def __init__(self, path: Path, prefix: str):
        self.path, self.prefix = path, prefix
        self.data = json.loads(path.read_text()) if path.is_file() else {}

    def check(self, label: str, file) -> list[str]:
        digest = checks.sha256_file(file)
        seen = self.data.setdefault(f"{self.prefix}|{label}", digest)
        return [] if seen == digest else [f"{label}: sha256 {digest} differs from {seen}"]

    def save(self) -> None:
        tmp = self.path.with_suffix(f".{os.getpid()}.tmp")
        tmp.write_text(json.dumps(self.data, indent=0, sort_keys=True))
        os.replace(tmp, self.path)


class Bench:
    """Issues one workload's commands, checks them and records their times."""

    def __init__(self, cli, workload, seed: int, work: Path, log, digests: Digests):
        self.cli, self.w, self.seed, self.work, self.log = cli, workload, seed, work, log
        self.digests = digests
        self.system = work / "system"
        self.tally = Tally()
        self.tracer: Tracer | None = None
        self.speed_loop: SpeedLoop | None = None
        self.repeat_seconds = 0.0
        self.violations: list[int] = []
        self.system_sha256: dict[str, str] = {}

    def first_violations(self) -> int:
        """Bound violations in the first checked compare CSV (they repeat per seed)."""
        return self.violations[0] if self.violations else 0

    def path(self, name: str) -> Path:
        return self.work / name

    def command(self, label: str, argv: list[str], check) -> tuple[float, float | None]:
        """Run and check one command; returns (wall seconds, mean SpeedLoop seconds around it)."""
        span = self.tracer.command(label) if self.tracer else contextlib.nullcontext()
        loop = self.speed_loop() if self.speed_loop else None
        with span:
            seconds, problems = run_cli(self.cli, argv, self.log)
        if self.speed_loop:
            loop = (loop + self.speed_loop()) / 2
        if not problems:
            problems = check()
        if not self.tally.record(label, problems):
            print(f"perfbench: {label} failed: {problems[:3]}", file=sys.stderr)
        return seconds, loop

    def setup(self) -> tuple[float, float | None]:
        shutil.rmtree(self.system, ignore_errors=True)
        return self.command("setup", self.w.gen_argv(self.seed, str(self.system)), self._check_setup)

    def _check_setup(self) -> list[str]:
        problems = checks.check_system(self.system, "over-inconsistent" in self.w.gen)
        for name in ("X.txt", "y.txt"):
            if not problems:
                self.system_sha256[name] = checks.sha256_file(self.system / name)
                problems += self.digests.check(name, self.system / name)
        return problems

    def _check_compare(self) -> list[str]:
        problems, violations = checks.check_compare(self.path("compare.csv"), self.system, self.w)
        self.violations.append(violations)
        return problems or self.digests.check("compare.csv", self.path("compare.csv"))

    def _check_solve(self) -> list[str]:
        problems = checks.check_solve(self.path("solve.csv"), self.system, self.w)
        return problems or self.digests.check("solve.csv", self.path("solve.csv"))

    def _check_bounds(self) -> list[str]:
        problems = checks.check_bounds(self.path("bounds.csv"), self.w)
        return problems or self.digests.check("bounds.csv", self.path("bounds.csv"))

    def cycle(self, with_setup: bool = False) -> dict[str, list[float]]:
        """One pass of [setup ->] compare -> solve -> bounds.

        Returns wall seconds per command run under "<command>_s", and with a
        speed loop the loop's seconds around each run under "<command>_loop_s".
        """
        system, seed, w = str(self.system), self.seed, self.w
        commands = (
            *((("setup", None, None),) if with_setup else ()),
            ("compare", w.compare_argv(system, seed, str(self.path("compare.csv"))),
             self._check_compare),
            ("solve", w.solve_argv(system, seed, str(self.path("solve.csv"))), self._check_solve),
            ("bounds", w.bounds_argv(system, str(self.path("bounds.csv"))), self._check_bounds),
        )
        out = {}
        for label, argv, check in commands:
            run = self.setup if label == "setup" else lambda: self.command(label, argv, check)
            times, loops = [], []
            while not times or sum(times) < self.repeat_seconds:
                seconds, loop = run()
                times.append(seconds)
                loops.append(loop)
            out[f"{label}_s"] = times
            if self.speed_loop:
                out[f"{label}_loop_s"] = loops
        return out

    def cycles(self, seconds: float, on_cycle=None, with_setup=False) -> list[dict[str, float]]:
        """Closed loop: cycles back to back until `seconds` pass, at least one."""
        out = []
        start = time.perf_counter()
        while not out or time.perf_counter() - start < seconds:
            cpu0, wall0 = _cpu_seconds(), time.perf_counter()
            sample = self.cycle(with_setup)
            sample["cpu_s"] = _cpu_seconds() - cpu0
            sample["wall_s"] = time.perf_counter() - wall0
            if on_cycle is not None:
                sample.update(on_cycle(len(out)))
            out.append(sample)
        return out

    def self_test(self) -> bool:
        """A corrupted CSV and a non-zero exit must each count as one failed operation."""
        tally = Tally()
        source = self.path("compare.csv")
        lines = source.read_text().splitlines() if source.is_file() else []
        if len(lines) < 2:  # compare failed this run; corrupt a minimal CSV instead
            lines = [checks.COMPARE_HEADER, "0,REK,1.0,1.0,1.0,1.0,nan"]
        fields = lines[1].split(",")
        fields[2] = repr(2.0 * abs(float(fields[5])) + 1.0)  # mean above max
        lines[1] = ",".join(fields)
        corrupt = self.path("corrupt.csv")
        corrupt.write_text("\n".join(lines) + "\n")
        tally.record("corrupt compare.csv", checks.check_compare(corrupt, self.system, self.w)[0])
        argv = ["compare", "--system", str(self.path("no-such-system")),
                "--out", str(self.path("unused.csv"))]
        tally.record("non-zero exit", run_cli(self.cli, argv, self.log)[1])
        return tally.attempted == 2 and tally.failed == 2


def _cpu_seconds() -> float:
    ru = resource.getrusage(resource.RUSAGE_SELF)
    return ru.ru_utime + ru.ru_stime


def _median(cycles, key):
    """Median wall seconds over every run of one command in the given cycles."""
    return statistics.median(t for c in cycles for t in c[key])


def _fastest(cycles, key):
    """Fastest wall seconds over every run of one command in the given cycles."""
    return min(t for c in cycles for t in c[key])


def _normalized(cycles, command):
    """Median over every run of one command of its wall time in SpeedLoop units, in seconds."""
    return LOOP_NOMINAL_S * statistics.median(
        t / loop for c in cycles for t, loop in zip(c[f"{command}_s"], c[f"{command}_loop_s"])
    )


# ---------------------------------------------------------------------------
# Per-layer metrics from one traced unit


def _sum(spans, name, field="duration", command=None) -> float:
    total = 0.0
    for sp in spans:
        if sp.name == name and (command is None or sp.command == command):
            total += sp.self_s if field == "self" else sp.end - sp.start
    return total


def setup_layers(tracer: Tracer, bench: Bench) -> dict[str, float]:
    spans = tracer.unit_spans()
    return {
        "linalg.numeric_rank.s": _sum(spans, "linalg.numeric_rank"),
        "linalg.least_squares_ref.s": _sum(spans, "linalg.least_squares_ref"),
        "linalg.least_norm_ref.s": _sum(spans, "linalg.least_norm_ref"),
        "problems.gen.self_s": _sum(spans, "problems.gen", "self"),
        "problems.gen.gaussian_draws": tracer.counts.get("problems.gen.gaussian_draws", 0),
        "problems.save_system.s": _sum(spans, "problems.save_system"),
        "problems.save_system.bytes": sum(p.stat().st_size for p in bench.system.iterdir()),
    }


def cycle_layers(tracer: Tracer, bench: Bench, breakdown: dict) -> dict[str, float]:
    spans = tracer.unit_spans()
    hot = defaultdict(lambda: HotStat(""), tracer.hot)
    runs = [sp for sp in spans if sp.name == "solvers.run"]
    iterations = {k: sum(sp.info[1] for sp in runs if sp.info and sp.info[0] == k) for k in KINDS}
    total_iterations = sum(iterations.values())
    loads = [sp for sp in spans if sp.name == "problems.load_system"]
    sample, sync, bound_eval = hot["sampling.sample"], hot["solvers.sync_residual"], hot["theory.bound_eval"]
    m = {
        "linalg.spectral_summary.s": _sum(spans, "linalg.spectral_summary"),
        "linalg.spectral_summary.calls": sum(sp.name == "linalg.spectral_summary" for sp in spans),
        "linalg.apply_row_projector.calls": hot["linalg.apply_row_projector"].calls,
        "linalg.apply_row_projector.s": hot["linalg.apply_row_projector"].total,
        "problems.load_system.s": _sum(spans, "problems.load_system"),
        "problems.load_system.calls": len(loads),
        "problems.load_system.bytes": sum(sp.info or 0 for sp in loads),
        "theory.from_system.self_s": _sum(spans, "theory.from_system", "self"),
        "theory.bound_eval.calls": bound_eval.calls,
        "theory.bound_eval.s": bound_eval.total,
        "sampling.sample.calls": sample.calls,
        "sampling.sample.us_p50": sample.percentile_us(50),
        "sampling.sample.us_p99": sample.percentile_us(99),
        "solvers.us_per_iter": (
            _sum(spans, "solvers.run") / total_iterations * 1e6 if total_iterations else 0.0
        ),
        "solvers.run.self_s": _sum(spans, "solvers.run", "self"),
        "solvers.sync_residual.calls": sync.calls,
        "solvers.sync_residual.s": sync.total,
        "solvers.sync_residual.flops": sync.flops,
        "harness.trials.s": _sum(spans, "solvers.run", command="compare"),
        "harness.aggregate.self_s": _sum(spans, "harness.run_experiment", "self"),
        "harness.excluded": sum(sp.info or 0 for sp in spans if sp.name == "harness.compare_solvers"),
        "harness.emit_csv.s": _sum(spans, "harness.emit_csv"),
        "harness.emit_csv.bytes": bench.path("compare.csv").stat().st_size,
    }
    for k in KINDS:
        step = hot[f"solvers.step.{k}"]
        m[f"solvers.step.{k}.calls"] = step.calls
        m[f"solvers.step.{k}.us_p50"] = step.percentile_us(50)
        m[f"solvers.step.{k}.us_p99"] = step.percentile_us(99)
        m[f"solvers.iterations.{k}"] = iterations[k]
    for module in MODULES:
        m[f"{module}.self_s"] = sum(row["module_self_s"][module] for row in breakdown.values())
    return m


# ---------------------------------------------------------------------------
# The two kinds of run


def untraced_run(bench: Bench, seconds: float) -> tuple[dict, dict]:
    """Cycles of set-up, compare, solve and bounds, so each samples the whole window.

    One warm-up cycle before the window fills caches and the allocator; its
    outputs are checked, its times are kept apart.  Times are normalised by
    the SpeedLoop; the wall clock is kept in the record and printed.
    """
    bench.speed_loop = SpeedLoop()
    warm_up = bench.cycle(with_setup=True)
    bench.repeat_seconds = REPEAT_SECONDS
    cycles = bench.cycles(seconds, with_setup=True)
    commands = ("setup", "compare", "solve", "bounds")
    metrics = {f"{c}_s": _normalized(cycles, c) for c in commands}
    metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    loops = bench.speed_loop.samples
    wall = {
        "speed_loop_s": {"runs": len(loops), "fastest": min(loops), "median": statistics.median(loops)},
        **{f"{c}_s": {"runs": sum(len(cy[f"{c}_s"]) for cy in cycles),
                      "fastest": _fastest(cycles, f"{c}_s"), "median": _median(cycles, f"{c}_s")}
           for c in commands},
    }
    return metrics, {"wall": wall, "warm_up": warm_up, "cycles": cycles}


def traced_run(bench: Bench, seconds: float) -> tuple[dict, dict]:
    """Untraced cycles, then a traced set-up and traced cycles.

    The speed loop runs outside the traced commands, so trace.* times are
    normalised like the end-to-end ones; span and layer times are wall clock.
    """
    bench.setup()
    bench.speed_loop = SpeedLoop()
    plain = bench.cycles(seconds / 2)
    tracer = bench.tracer = Tracer()
    tracer.install()
    try:
        tracer.begin_unit("setup")
        setup_seconds, setup_loop = bench.setup()
        setup_metrics = setup_layers(tracer, bench)
        breakdown = [tracer.command_breakdown()]

        def finish_cycle(index):
            breakdown.append(tracer.command_breakdown())
            layers = cycle_layers(tracer, bench, breakdown[-1])
            tracer.begin_unit(f"cycle{index + 1}")
            return layers

        tracer.begin_unit("cycle0")
        traced = bench.cycles(seconds / 2, on_cycle=finish_cycle)
    finally:
        tracer.uninstall()
        bench.tracer = None
    metrics = dict(setup_metrics)
    timings = ("compare_s", "solve_s", "bounds_s", "compare_loop_s", "solve_loop_s", "bounds_loop_s",
               "cpu_s", "wall_s")
    for name in traced[0]:
        if name not in timings:
            values = [c[name] for c in traced]
            exact = all(isinstance(v, int) for v in values)  # counts stay whole numbers
            metrics[name] = (statistics.median_low if exact else statistics.median)(values)
    metrics.update({
        "proc.cpu_s": statistics.median(c["cpu_s"] for c in plain),
        "proc.cpu_util": statistics.median(c["cpu_s"] / c["wall_s"] for c in plain),
        "theory.bound_violations": bench.first_violations(),
        "trace.setup_s": LOOP_NOMINAL_S * setup_seconds / setup_loop,
        "trace.compare_s": _normalized(traced, "compare"),
        "trace.compare_overhead_s": _normalized(traced, "compare") - _normalized(plain, "compare"),
    })
    OUT.joinpath("spans").mkdir(parents=True, exist_ok=True)
    tracer.dump(OUT / "spans" / f"{bench.w.name}-seed{bench.seed}.jsonl")
    detail = {"untraced_cycles": plain, "traced_cycles": traced, "trace_missing": tracer.missing,
              "command_breakdown": breakdown}
    return metrics, detail


# ---------------------------------------------------------------------------


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True, help="measuring window")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    kaczgs = import_package()
    workload = WORKLOADS[args.workload]
    stamp = env_stamp(kaczgs, args.seed)
    tag = f"{workload.name}-seed{args.seed}-trace{args.trace}"
    for sub in ("results", "logs"):
        (OUT / sub).mkdir(parents=True, exist_ok=True)
    work = OUT / f"work-{tag}-{os.getpid()}"
    work.mkdir()
    # outputs are a function of the package, the command lines and the platform's numerics
    config = hashlib.sha256(repr(workload).encode()).hexdigest()
    digests = Digests(
        OUT / "digests.json",
        f"{stamp['source_sha256']}|{config}|{stamp['numpy']}|{stamp['blas_threads']}|{args.seed}",
    )
    try:
        with open(OUT / "logs" / f"{tag}.log", "w") as log:
            bench = Bench(kaczgs.cli, workload, args.seed, work, log, digests)
            run = traced_run if args.trace else untraced_run
            metrics, detail = run(bench, args.seconds)
            self_test_ok = bench.self_test()
    finally:
        shutil.rmtree(work, ignore_errors=True)
    digests.save()
    stamp["system_sha256"] = bench.system_sha256

    wanted = spec["per_layer" if args.trace else "end_to_end"]
    tally = bench.tally
    correct = tally.failed == 0 and self_test_ok
    result = {
        "correct": correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in wanted},
    }
    record = {"env": stamp, "result": result, "all_metrics": metrics, "detail": detail,
              "problems": tally.problems, "self_test_ok": self_test_ok}
    (OUT / "results" / f"{tag}.json").write_text(json.dumps(record, indent=1, default=str))

    if not self_test_ok:
        print("perfbench: self-test failed: failure accounting is broken", file=sys.stderr)
    print(f"{workload.name} seed {args.seed} trace {args.trace}: "
          f"{tally.attempted} operations, {tally.failed} failed")
    summary = dict(result["metrics"])
    if not args.trace:
        summary["failed_frac"] = {"value": tally.failed / tally.attempted, "unit": "ratio"}
        summary["bound_violations"] = {"value": bench.first_violations(), "unit": "count"}
    for name, m in summary.items():
        print(f"  {name:36s} {m['value']!r:>24} {m['unit']}")
    for name, w in detail.get("wall", {}).items():
        print(f"  wall clock {name:25s} {w['runs']:4d} runs, fastest {w['fastest']:.4f} s, "
              f"median {w['median']:.4f} s")
    for unit in detail.get("command_breakdown", [])[:2]:  # traced set-up and first cycle
        for command, row in unit.items():
            parts = sorted(row["module_self_s"].items(), key=lambda kv: -kv[1])
            shares = ", ".join(f"{mod} {sec:.3f}s ({sec / row['wall_s']:.0%})"
                               for mod, sec in parts if sec > 0)
            print(f"  traced {command} {row['wall_s']:.3f}s: {shares}")
    print("env " + json.dumps(stamp, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
