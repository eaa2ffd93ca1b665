"""Reproducible problem generators and system directory serialization.

Three Gaussian regimes (over-consistent, over-inconsistent, underdetermined)
plus a self-contained tomography-style generator. Every generated system
carries its regime reference solution, recomputed through the direct
oracles in :mod:`kaczgs.linalg`, so iterative solvers can be measured
against it.

Serialized systems are plain text, one directory per system:

  X.txt         "m n" then m rows of n space-separated values
  y.txt         "m" then m values, one per line
  reference.txt optional, vector format
  residual.txt  optional, vector format (least-squares residual)
  meta.txt      "key value" lines: regime, seed, and the generating spec's kind
                (gaussian: noise_scale; tomography: grid_n, oversample)
  arrays.npz    binary cache of the four array files (below)

A matrix or vector file holds exactly the lines its header declares,
then blank lines only.

Values are written with full round-trip precision (repr), so save/load is
value-exact. Saving into an existing directory deletes an optional array
file that the new system lacks, so no earlier system's reference loads with
it. ``redraw`` draws a fresh system from the generator that meta.txt records.

save_system also writes arrays.npz, an uncompressed numpy archive holding
X, y and the present references as float64 arrays, plus a sha256 of the
exact bytes of the text array files (each framed by its name and length).
It is a cache: load_system takes the arrays from it only when that digest
matches the text files it has just read, and otherwise parses the text,
so adding, deleting or editing any array file makes the sidecar miss.
Deleting the sidecar is always safe; the text files stay canonical and a
system loads to the same bits either way. The archive carries no
timestamp, so it too is a pure function of the system.
"""
from __future__ import annotations

import hashlib
import math
import zipfile
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .errors import ConfigurationError, NumericalError, ParseError, SingularMatrixError
from .linalg import (
    DenseMatrix,
    LinearSystem,
    Regime,
    _norm,
    least_norm_ref,
    least_squares_ref,
    numeric_rank,
)
from .sampling import Prng, check_seed

GEN_MAX_ATTEMPTS = 5


@dataclass(frozen=True)
class GenSpec:
    """Parameters for one Gaussian system draw."""

    m: int
    n: int
    regime: Regime
    seed: int
    noise_scale: float = 1.0

    def __post_init__(self):
        check_seed(self.seed)
        if self.m < 1 or self.n < 1:
            raise ConfigurationError(f"dimensions must be positive, got {self.m}x{self.n}")
        if self.regime in (Regime.OVER_CONSISTENT, Regime.OVER_INCONSISTENT):
            if self.m <= self.n:
                raise ConfigurationError(
                    f"{self.regime.value} generation requires m > n, got {self.m}x{self.n}"
                )
        elif self.m >= self.n:
            raise ConfigurationError(
                f"underdetermined generation requires m < n, got {self.m}x{self.n}"
            )
        if not (math.isfinite(self.noise_scale) and self.noise_scale >= 0):
            raise ConfigurationError(
                f"noise_scale must be finite and nonnegative, got {self.noise_scale}"
            )
        if self.regime is Regime.OVER_INCONSISTENT and self.noise_scale == 0:
            raise ConfigurationError("inconsistent generation requires noise_scale > 0")


@dataclass(frozen=True)
class TomoSpec:
    """Parameters for one tomography-style system: N x N grid, d-fold line set."""

    grid_n: int
    oversample: int
    seed: int

    def __post_init__(self):
        check_seed(self.seed)
        if self.grid_n < 2:
            raise ConfigurationError(f"grid_n must be >= 2, got {self.grid_n}")
        if self.oversample < 2:
            raise ConfigurationError(
                f"oversample must be >= 2 so the system is underdetermined, "
                f"got {self.oversample}"
            )


def gen_gaussian(spec: GenSpec) -> LinearSystem:
    """Draw an i.i.d. standard-normal system for the requested regime.

    Draw order (row-major X, then the solution draw, then the noise draw for
    the inconsistent regime) is fixed so a spec reproduces byte-identical
    systems. Rank-degenerate draws are retried with seed+1, seed+2, ... up
    to GEN_MAX_ATTEMPTS before failing; retry seeds wrap mod 2**64, and the
    seed actually used is the one recorded on the system.
    """
    last_error = None
    for attempt in range(GEN_MAX_ATTEMPTS):
        seed = (spec.seed + attempt) % 2**64
        rng = Prng(seed)
        X = DenseMatrix(rng.gaussians(spec.m * spec.n).reshape(spec.m, spec.n))
        if numeric_rank(X) < min(spec.m, spec.n):
            last_error = NumericalError(f"rank-degenerate draw at seed {seed}")
            continue
        beta = rng.gaussians(spec.n)
        try:
            return _finish_gaussian(spec, X, beta, rng, seed)
        except SingularMatrixError as exc:
            last_error = exc
            continue
    raise NumericalError(
        f"gen_gaussian failed after {GEN_MAX_ATTEMPTS} attempts "
        f"(seeds {spec.seed} + 0..{GEN_MAX_ATTEMPTS - 1} mod 2**64): {last_error}"
    )


def _finish_gaussian(
    spec: GenSpec, X: DenseMatrix, beta: np.ndarray, rng: Prng, seed: int
) -> LinearSystem:
    if spec.regime is Regime.OVER_CONSISTENT:
        y = X.data @ beta
        return LinearSystem(X, y, spec.regime, reference=beta, seed=seed)

    if spec.regime is Regime.UNDERDETERMINED:
        y = X.data @ beta
        provisional = LinearSystem(X, y, spec.regime, seed=seed)
        ref = least_norm_ref(provisional)  # the drawn beta is NOT minimum-norm
        return replace(provisional, reference=ref)

    # over-inconsistent: residual is a scaled projection onto null(X^T)
    w = rng.gaussians(spec.m)
    fit = LinearSystem(X, w, Regime.OVER_CONSISTENT, seed=seed)
    w_col = X.data @ least_squares_ref(fit)
    with np.errstate(over="ignore"):  # a y or ||r||^2 that overflows is reported just below
        r = spec.noise_scale * (w - w_col)
        y = X.data @ beta + r
        r_sq = float(r @ r)
    if not (np.all(np.isfinite(y)) and math.isfinite(r_sq)):
        raise ConfigurationError(f"noise_scale {spec.noise_scale!r} overflows y or ||r||^2 "
                                 "in float64")
    if _norm(r) <= 1e-12 * _norm(w):
        raise SingularMatrixError("noise draw landed in the column space")
    provisional = LinearSystem(X, y, spec.regime, seed=seed)
    ref = least_squares_ref(provisional)
    return replace(provisional, reference=ref, residual_ref=r)


# ---------------------------------------------------------------------------
# Tomography-style generator
#
# Cells of an N x N grid are the m = N^2 equations; the n = d*N^2 unknowns
# are random lines (chords) across the grid, oversampled d-fold. Entry
# (cell, line) is the length of the line's intersection with that cell
# (Siddon-style parametric tracing), so every entry is nonnegative and each
# line touches at most 2N-1 cells. The right-hand side comes from weighting
# the lines by a smooth nonnegative phantom (three seeded Gaussian bumps
# evaluated at each line's midpoint), keeping y elementwise nonnegative.


def _perimeter_point(u: float, n: int) -> tuple[float, float]:
    side, frac = divmod(u, n)
    side = int(side) % 4
    if side == 0:
        return frac, 0.0
    if side == 1:
        return float(n), frac
    if side == 2:
        return n - frac, float(n)
    return 0.0, n - frac


def _trace_line(p0, p1, n: int) -> list[tuple[int, float]]:
    """Cells crossed by segment p0->p1 inside [0,n]^2 with intersection lengths."""
    x0, y0 = p0
    x1, y1 = p1
    dx, dy = x1 - x0, y1 - y0
    length = math.hypot(dx, dy)
    if length == 0.0:
        return []
    ts = {0.0, 1.0}
    if dx != 0.0:
        for k in range(n + 1):
            t = (k - x0) / dx
            if 0.0 < t < 1.0:
                ts.add(t)
    if dy != 0.0:
        for k in range(n + 1):
            t = (k - y0) / dy
            if 0.0 < t < 1.0:
                ts.add(t)
    knots = sorted(ts)
    out = []
    for a, b in zip(knots[:-1], knots[1:]):
        if b <= a:
            continue
        tm = 0.5 * (a + b)
        ix = int(math.floor(x0 + tm * dx))
        iy = int(math.floor(y0 + tm * dy))
        if 0 <= ix < n and 0 <= iy < n:
            out.append((iy * n + ix, (b - a) * length))
    return out


def gen_tomography(spec: TomoSpec) -> LinearSystem:
    """Underdetermined N^2 x (d N^2) line-sampling system with least-norm reference.

    Line endpoints are drawn uniformly on the grid boundary; draws landing
    on a single side (a degenerate chord along the boundary) are rejected
    and redrawn. Seeds whose line set fails the full-row-rank requirement of
    the least-norm oracle are retried with seed+1, ... (mod 2**64) like
    gen_gaussian.
    """
    last_error = None
    for attempt in range(GEN_MAX_ATTEMPTS):
        seed = (spec.seed + attempt) % 2**64
        try:
            return _build_tomography(spec, seed)
        except SingularMatrixError as exc:
            last_error = exc
    raise NumericalError(
        f"gen_tomography failed after {GEN_MAX_ATTEMPTS} attempts: {last_error}"
    )


def _uniform_stream(rng: Prng, refill: int):
    """rng's uniforms one at a time in stream order, drawn `refill` at a time.

    Those past the last one read go unseen.
    """
    while True:
        yield from rng.uniforms(refill).tolist()


def _build_tomography(spec: TomoSpec, seed: int) -> LinearSystem:
    n_grid = spec.grid_n
    m = n_grid * n_grid
    n = spec.oversample * m
    # a chord is redrawn when both ends land on one side (1 in 4), so the n lines
    # read about 8n/3 uniforms and the phantom 12 more: one refill of 3n usually covers them
    draws = _uniform_stream(Prng(seed), 3 * n)
    perimeter = 4.0 * n_grid

    data = np.zeros((m, n))
    midpoints = np.empty((n, 2))
    for j in range(n):
        while True:
            u0 = next(draws) * perimeter
            u1 = next(draws) * perimeter
            if int(u0 // n_grid) % 4 == int(u1 // n_grid) % 4:
                continue  # both endpoints on one side: degenerate chord
            p0 = _perimeter_point(u0, n_grid)
            p1 = _perimeter_point(u1, n_grid)
            cells = _trace_line(p0, p1, n_grid)
            if cells:
                break
        for cell, seg in cells:
            data[cell, j] += seg
        midpoints[j, 0] = 0.5 * (p0[0] + p1[0])
        midpoints[j, 1] = 0.5 * (p0[1] + p1[1])

    # smooth nonnegative phantom: three seeded Gaussian bumps over the grid
    # domain, evaluated at each line's midpoint
    beta = np.zeros(n)
    for _ in range(3):
        cx = n_grid * (0.2 + 0.6 * next(draws))
        cy = n_grid * (0.2 + 0.6 * next(draws))
        width = n_grid * (0.125 + 0.125 * next(draws))
        amp = 0.5 + next(draws)
        d_sq = (midpoints[:, 0] - cx) ** 2 + (midpoints[:, 1] - cy) ** 2
        beta += amp * np.exp(-d_sq / (2.0 * width * width))

    X = DenseMatrix(data)
    y = X.data @ beta
    provisional = LinearSystem(X, y, Regime.UNDERDETERMINED, seed=seed)
    ref = least_norm_ref(provisional)
    return replace(provisional, reference=ref)


# ---------------------------------------------------------------------------
# Text serialization

def write_matrix(path, matrix) -> bytes:
    """Write a matrix file; returns the bytes written."""
    data = matrix.data if isinstance(matrix, DenseMatrix) else np.asarray(matrix, dtype=float)
    rows = (" ".join(map(repr, row)) for row in data.tolist())
    text = "\n".join([f"{data.shape[0]} {data.shape[1]}", *rows, ""]).encode()
    Path(path).write_bytes(text)
    return text


def write_vector(path, vec) -> bytes:
    """Write a vector file; returns the bytes written."""
    vec = np.asarray(vec, dtype=float)
    text = "\n".join([str(vec.shape[0]), *map(repr, vec.tolist()), ""]).encode()
    Path(path).write_bytes(text)
    return text


def _parse_floats(path, lineno, line, expected) -> list[float]:
    parts = line.split()
    if len(parts) != expected:
        raise ParseError(path, lineno, f"expected {expected} values, found {len(parts)}")
    try:
        return [float(p) for p in parts]
    except ValueError as exc:
        raise ParseError(path, lineno, f"invalid number: {exc}") from None


def _check_count(path, lines, count: int, what: str) -> None:
    """The header's ``count`` lines follow it, then blank lines only."""
    if count < 0:
        raise ParseError(path, 1, f"negative {what} count {count} in header")
    if len(lines) < count + 1:
        raise ParseError(path, len(lines), f"expected {count} {what}, found {len(lines) - 1}")
    for lineno, line in enumerate(lines[count + 1:], start=count + 2):
        if line.strip():
            declared = f"the {count} {what} declared in the header"
            raise ParseError(path, lineno, f"extra line after {declared}: {line[:40]!r}")


def _parse_matrix(path, text: str) -> list[list[float]]:
    lines = text.splitlines()
    if not lines:
        raise ParseError(path, 1, "empty matrix file")
    header = lines[0].split()
    if len(header) != 2:
        raise ParseError(path, 1, f"expected header 'm n', got {lines[0]!r}")
    try:
        m, n = int(header[0]), int(header[1])
    except ValueError:
        raise ParseError(path, 1, f"non-integer dimensions in header {lines[0]!r}") from None
    _check_count(path, lines, m, "matrix rows")
    return [_parse_floats(path, i + 2, lines[i + 1], n) for i in range(m)]


def _parse_vector(path, text: str) -> np.ndarray:
    lines = text.splitlines()
    if not lines:
        raise ParseError(path, 1, "empty vector file")
    try:
        m = int(lines[0].strip())
    except ValueError:
        raise ParseError(path, 1, f"expected vector length, got {lines[0]!r}") from None
    _check_count(path, lines, m, "values")
    return np.array([_parse_floats(path, i + 2, lines[i + 1], 1)[0] for i in range(m)])


def read_matrix(path) -> DenseMatrix:
    return DenseMatrix(_parse_matrix(path, Path(path).read_text()))


def read_vector(path) -> np.ndarray:
    return _parse_vector(path, Path(path).read_text())


# ---------------------------------------------------------------------------
# Binary sidecar: a cache of the text array files, checked against their bytes

SIDECAR = "arrays.npz"

#: the text array files, in digest order; each is stored in the sidecar under its stem
_ARRAY_FILES = ("X.txt", "y.txt", "reference.txt", "residual.txt")


def _text_digest(texts: dict[str, bytes]) -> bytes:
    """sha256 over the present array files, each framed by its name and length."""
    h = hashlib.sha256()
    for name in _ARRAY_FILES:
        if name in texts:
            h.update(f"{name} {len(texts[name])}\n".encode())
            h.update(texts[name])
    return h.digest()


def _read_sidecar(path: Path, texts: dict[str, bytes]) -> dict[str, np.ndarray] | None:
    """The sidecar's arrays if it is the cache of exactly ``texts``, else None."""
    try:
        # np.load leaks the handle it opens when the archive is truncated
        with open(path, "rb") as fh, np.load(fh, allow_pickle=False) as npz:
            if npz["digest"].tobytes() != _text_digest(texts):
                return None
            return {name: npz[name.removesuffix(".txt")] for name in texts}
    except (OSError, ValueError, EOFError, KeyError, zipfile.BadZipFile):
        return None  # missing, truncated or not written by save_system


def save_system(system: LinearSystem, directory, spec: GenSpec | TomoSpec | None = None) -> None:
    """Write a system directory; meta.txt records ``spec``, the draw's generator, for redraw."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    present = zip(_ARRAY_FILES, (system.X.data, system.y, system.reference, system.residual_ref))
    arrays = {name: values for name, values in present if values is not None}
    for name in _ARRAY_FILES:
        if name not in arrays:
            (directory / name).unlink(missing_ok=True)
    texts = {
        name: (write_matrix if name == "X.txt" else write_vector)(directory / name, values)
        for name, values in arrays.items()
    }
    stored = {name.removesuffix(".txt"): values for name, values in arrays.items()}
    digest = np.frombuffer(_text_digest(texts), dtype=np.uint8)
    np.savez(directory / SIDECAR, digest=digest, **stored)
    meta = {"regime": system.regime.value, "seed": system.seed}
    if isinstance(spec, GenSpec):
        meta.update(kind="gaussian", noise_scale=spec.noise_scale)
    elif isinstance(spec, TomoSpec):
        meta.update(kind="tomography", grid_n=spec.grid_n, oversample=spec.oversample)
    with open(directory / "meta.txt", "w", newline="\n") as fh:
        for key, value in meta.items():
            fh.write(f"{key} {'none' if value is None else value}\n")


def load_meta(directory) -> dict:
    path = Path(directory) / "meta.txt"
    if not path.exists():
        raise ConfigurationError(f"missing system file: {path}")
    meta = {}
    with open(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            parts = line.split(maxsplit=1)
            if len(parts) != 2:
                raise ParseError(path, lineno, f"expected 'key value', got {line!r}")
            if parts[0] == "seed" and parts[1] != "none":
                try:
                    check_seed(int(parts[1]))
                except (ValueError, ConfigurationError):
                    raise ParseError(path, lineno, f"seed {parts[1]!r} is not none or an "
                                     "integer in [0, 2**64)") from None
            meta[parts[0]] = parts[1]
    if "regime" not in meta:
        raise ParseError(path, 1, "meta.txt is missing the regime entry")
    if meta["regime"] not in {r.value for r in Regime}:
        raise ParseError(path, 1, f"unknown regime {meta['regime']!r}")
    return meta


def redraw(directory, base: LinearSystem, seed: int) -> LinearSystem:
    """A fresh draw at ``seed`` from the generator recorded in the directory's meta.txt.

    ``base`` is the system loaded from the directory; a Gaussian redraw
    keeps its shape and regime.
    """
    meta = load_meta(directory)
    kind = meta.get("kind")

    def number(key, parse, default=None):
        text = meta.get(key, default)
        try:
            return parse(text)
        except (TypeError, ValueError):
            raise ConfigurationError(
                f"{Path(directory) / 'meta.txt'}: {key} {text!r} is not a valid {parse.__name__}"
            ) from None

    if kind == "gaussian":
        noise_scale = number("noise_scale", float, "1.0")
        return gen_gaussian(
            GenSpec(m=base.m, n=base.n, regime=base.regime, seed=seed, noise_scale=noise_scale)
        )
    if kind == "tomography":
        grid_n, oversample = number("grid_n", int), number("oversample", int)
        return gen_tomography(TomoSpec(grid_n=grid_n, oversample=oversample, seed=seed))
    raise ConfigurationError(
        "redraw_matrix_per_trial requires generator metadata (kind gaussian|tomography) "
        f"in {Path(directory) / 'meta.txt'}"
    )


def load_system(directory) -> LinearSystem:
    """Reconstruct a LinearSystem from a directory; invariants are revalidated.

    The text array files are read once; their values come from the sidecar
    when it holds the digest of exactly these bytes, else from parsing them.
    """
    directory = Path(directory)
    for name in ("X.txt", "y.txt"):
        if not (directory / name).exists():
            raise ConfigurationError(f"missing system file: {directory / name}")
    meta = load_meta(directory)
    texts = {
        name: (directory / name).read_bytes()
        for name in _ARRAY_FILES
        if (directory / name).exists()
    }
    arrays = _read_sidecar(directory / SIDECAR, texts)
    if arrays is None:
        arrays = {
            name: (_parse_matrix if name == "X.txt" else _parse_vector)(
                directory / name, text.decode()
            )
            for name, text in texts.items()
        }
    seed_text = meta.get("seed", "none")
    seed = None if seed_text == "none" else int(seed_text)
    return LinearSystem(
        DenseMatrix(arrays["X.txt"]),
        arrays["y.txt"],
        Regime(meta["regime"]),
        reference=arrays.get("reference.txt"),
        residual_ref=arrays.get("residual.txt"),
        seed=seed,
    )
