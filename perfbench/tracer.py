"""Layer tracing from outside the package.

The tracer rebinds the names that callers look up: module-level functions
in every ``kaczgs.*`` namespace that imported them, and methods on the
classes that define them.  Nothing under ``src/`` changes, and
``uninstall`` restores every original.

Boundaries crossed a few hundred times per command are recorded as spans
(name, module, command, run id, start, end, parent, self time).  The
per-step boundaries (``WeightedIndex.sample``, solver ``step`` and
``sync_residual``, ``apply_row_projector``, the bound evaluators) are
crossed up to a million times per command, so they are aggregated into
counts, totals and per-call duration arrays instead.

Self time is a call's duration minus the time of the traced calls made
inside it.  Every wrapper adds its own duration to one shared accumulator
on exit, which is how a parent learns the time its children covered.
Self times of all wrappers plus the command roots sum to the traced wall
clock, so the module totals split it without gaps.

A target that a later version of the package no longer has is skipped and
listed in ``missing``; its metrics then read zero.
"""
from __future__ import annotations

import json
import os
import sys
import time
from array import array
from collections import defaultdict
from contextlib import contextmanager
from typing import NamedTuple

import numpy as np

PACKAGE = "kaczgs"
MODULES = ("cli", "problems", "linalg", "theory", "sampling", "solvers", "harness")
BOUND_EVALUATORS = (
    "bound_rk_consistent",
    "bound_rk_inconsistent",
    "bound_rek",
    "bound_comparison",
    "bound_regs",
)


class Span(NamedTuple):
    name: str
    module: str
    command: str
    run_id: str
    start: float
    end: float
    parent: int | None  # index into Tracer.spans
    self_s: float
    info: object


class HotStat:
    """Aggregate of one per-step boundary within the current traced unit."""

    __slots__ = ("module", "calls", "total", "self_total", "durations", "flops")

    def __init__(self, module: str):
        self.module = module
        self.reset()

    def reset(self):
        self.calls = 0
        self.total = 0.0
        self.self_total = 0.0
        self.durations = array("d")
        self.flops = 0

    def percentile_us(self, q: float) -> float:
        if not self.durations:
            return 0.0
        return float(np.percentile(np.frombuffer(self.durations, dtype=float), q)) * 1e6


def _dir_bytes(directory) -> int:
    with os.scandir(directory) as entries:
        return sum(e.stat().st_size for e in entries if e.is_file())


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []  # every span of the process, kept until the run ends
        self.unit_start = 0  # index of the first span of the current unit
        self.hot: dict[str, HotStat] = {}
        self.counts: dict[str, int] = defaultdict(int)
        self.missing: list[str] = []
        self._acc = [0.0]
        self._open: int | None = None
        self._command = ""
        self._run_id = ""
        self._undo: list[tuple[object, str, object]] = []
        self._hot_by_command: dict[str, dict] = {}

    # -- installation --------------------------------------------------

    def _module(self, name):
        return sys.modules.get(f"{PACKAGE}.{name}")

    def _rebind_function(self, module_name: str, attr: str, make):
        """Replace module_name.attr in every package namespace that holds it."""
        mod = self._module(module_name)
        original = getattr(mod, attr, None) if mod is not None else None
        if original is None:
            self.missing.append(f"{module_name}.{attr}")
            return
        wrapper = make(original)
        for mname, m in list(sys.modules.items()):
            if m is None or not (mname == PACKAGE or mname.startswith(PACKAGE + ".")):
                continue
            for key, value in list(vars(m).items()):
                if value is original:
                    self._undo.append((m, key, value))
                    setattr(m, key, wrapper)

    def _rebind_attr(self, owner, attr: str, label: str, make):
        if owner is None or not hasattr(owner, attr):
            self.missing.append(label)
            return
        self._undo.append((owner, attr, owner.__dict__.get(attr, _ABSENT)))
        setattr(owner, attr, make(getattr(owner, attr)))

    def install(self) -> None:
        span, hot = self._span_wrapper, self._hot_wrapper
        for mod, attr in (
            ("linalg", "numeric_rank"),
            ("linalg", "least_squares_ref"),
            ("linalg", "least_norm_ref"),
            ("linalg", "spectral_summary"),
            ("problems", "save_system"),
            ("harness", "run_experiment"),
            ("harness", "emit_csv"),
        ):
            self._rebind_function(mod, attr, lambda f, n=f"{mod}.{attr}", m=mod: span(n, m, f))
        for attr in ("gen_gaussian", "gen_tomography"):
            self._rebind_function("problems", attr, lambda f: span("problems.gen", "problems", f))
        self._rebind_function(
            "problems", "load_system",
            lambda f: span("problems.load_system", "problems", f,
                           lambda a, k, r: _dir_bytes(a[0] if a else k["directory"])),
        )
        self._rebind_function(
            "solvers", "run",
            lambda f: span("solvers.run", "solvers", f,
                           lambda a, k, r: (r.solver.value, r.final_iteration)),
        )
        self._rebind_function(
            "harness", "compare_solvers",
            lambda f: span("harness.compare_solvers", "harness", f,
                           lambda a, k, r: len(r.excluded)),
        )
        self._rebind_function(
            "linalg", "apply_row_projector",
            lambda f: hot("linalg.apply_row_projector", "linalg", f),
        )
        for attr in BOUND_EVALUATORS:
            self._rebind_function(
                "theory", attr, lambda f: hot("theory.bound_eval", "theory", f)
            )

        theory, sampling, solvers = (self._module(n) for n in ("theory", "sampling", "solvers"))
        bound_cls = getattr(theory, "TheoryBound", None)
        self._rebind_attr(
            bound_cls, "from_system", "theory.TheoryBound.from_system",
            lambda bound: classmethod(span("theory.from_system", "theory", bound.__func__)),
        )
        self._rebind_attr(
            getattr(sampling, "WeightedIndex", None), "sample", "sampling.WeightedIndex.sample",
            lambda f: hot("sampling.sample", "sampling", f, keep=True),
        )
        self._rebind_attr(
            getattr(sampling, "Prng", None), "gaussian", "sampling.Prng.gaussian",
            self._count_wrapper("problems.gen.gaussian_draws"),
        )
        kind_type = getattr(solvers, "SolverKind", None)
        solver_classes = [
            c for c in vars(solvers).values()
            if isinstance(c, type) and kind_type is not None
            and isinstance(getattr(c, "kind", None), kind_type)
        ] if solvers is not None else []
        if not solver_classes:
            self.missing.append("solvers.<solver classes>")
        for cls in solver_classes:
            kind = cls.kind.value
            self._rebind_attr(
                cls, "step", f"solvers.{cls.__name__}.step",
                lambda f, k=kind: hot(f"solvers.step.{k}", "solvers", f, keep=True),
            )
            self._rebind_attr(
                cls, "sync_residual", f"solvers.{cls.__name__}.sync_residual",
                lambda f: hot("solvers.sync_residual", "solvers", f, refresh=True),
            )

    def uninstall(self) -> None:
        for owner, attr, value in reversed(self._undo):
            if value is _ABSENT:
                delattr(owner, attr)
            else:
                setattr(owner, attr, value)
        self._undo.clear()

    # -- wrappers ------------------------------------------------------

    @contextmanager
    def _span(self, name, module):
        """Open a span; the caller may store a detail in holder[0]."""
        acc, clock, spans = self._acc, time.perf_counter, self.spans
        outer, acc[0] = acc[0], 0.0
        parent, idx = self._open, len(spans)
        spans.append(None)
        self._open = idx
        holder = [None]
        t0 = clock()
        try:
            yield holder
        finally:
            t1 = clock()
            spans[idx] = Span(name, module, self._command, self._run_id, t0, t1, parent,
                              t1 - t0 - acc[0], holder[0])
            self._open = parent
            acc[0] = outer + (t1 - t0)

    def _span_wrapper(self, name, module, fn, info=None):
        def traced(*args, **kwargs):
            with self._span(name, module) as holder:
                result = fn(*args, **kwargs)
                if info is not None:
                    holder[0] = info(args, kwargs, result)
            return result

        return traced

    def _stat(self, name, module) -> HotStat:
        if name not in self.hot:
            self.hot[name] = HotStat(module)
        return self.hot[name]

    def _hot_wrapper(self, name, module, fn, keep=False, refresh=False):
        """Aggregate a per-step boundary; keep per-call durations for percentiles.

        With ``refresh`` the callee is ``sync_residual(solver, state)``: a full
        refresh rebinds ``state.residual`` and costs 2*m*n flops.
        """
        acc, clock, stat = self._acc, time.perf_counter, self._stat(name, module)

        def traced(*args, **kwargs):
            before = args[1].residual if refresh else None
            outer, acc[0] = acc[0], 0.0
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                stat.calls += 1
                stat.total += dt
                stat.self_total += dt - acc[0]
                if keep:
                    stat.durations.append(dt)
                acc[0] = outer + dt
                if refresh and args[1].residual is not before:
                    stat.flops += 2 * args[1].residual.size * args[1].beta.size

        return traced

    def _count_wrapper(self, name):
        counts = self.counts

        def make(fn):
            def counted(*args, **kwargs):
                counts[name] += 1
                return fn(*args, **kwargs)

            return counted

        return make

    # -- units of work -------------------------------------------------

    def begin_unit(self, run_id: str) -> None:
        """Start a traced unit (one set-up or one pipeline cycle)."""
        self._run_id = run_id
        self.unit_start = len(self.spans)
        self._acc[0] = 0.0
        for stat in self.hot.values():
            stat.reset()
        self.counts.clear()
        self._hot_by_command = {}

    @contextmanager
    def command(self, name: str):
        """Root span for one CLI command issued by the benchmark."""
        self._command = name
        before = {k: (s.total, s.self_total) for k, s in self.hot.items()}
        with self._span(f"cli.{name}", "cli"):
            yield
        hot = self._hot_by_command.setdefault(name, defaultdict(lambda: [0.0, 0.0]))
        for k, s in self.hot.items():
            total0, self0 = before.get(k, (0.0, 0.0))
            hot[k][0] += s.total - total0
            hot[k][1] += s.self_total - self0

    def command_breakdown(self) -> dict:
        """Per command of the current unit: wall, module self seconds, layer totals."""
        out = {}
        for sp in self.unit_spans():
            row = out.setdefault(sp.command, {"wall_s": 0.0, "module_self_s": dict.fromkeys(MODULES, 0.0),
                                              "layer_s": defaultdict(float)})
            if sp.name == f"cli.{sp.command}":
                row["wall_s"] += sp.end - sp.start
            row["module_self_s"][sp.module] += sp.self_s
            row["layer_s"][sp.name] += sp.end - sp.start
        for command, hot in self._hot_by_command.items():
            for name, (total, self_total) in hot.items():
                out[command]["module_self_s"][self.hot[name].module] += self_total
                out[command]["layer_s"][name] += total
        return out

    def unit_spans(self) -> list[Span]:
        return self.spans[self.unit_start:]

    def dump(self, path) -> None:
        """Write every span as one JSON object per line."""
        with open(path, "w") as fh:
            for i, sp in enumerate(self.spans):
                row = sp._asdict()
                row["id"] = i
                if not isinstance(row["info"], (int, float, str, type(None))):
                    row["info"] = list(row["info"])
                fh.write(json.dumps(row) + "\n")


_ABSENT = object()
