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
  arrays.bin    binary cache of the present array files (below)

A matrix or vector file holds exactly the lines its header declares,
then blank lines only.

Values are written with full round-trip precision (repr), so save/load is
value-exact. A file costs one repr per entry that is not +0.0: an entry
whose bits are +0.0 is written as "0.0", which is repr(0.0), so the bytes
are those of repr on every entry, -0.0 included. read_matrix and
read_vector parse one file on its own; load_system does not use them, and
the tests keep them as the oracle of the writers' round trip. Saving into
an existing directory deletes an optional array file that the new system
lacks, so no earlier system's reference loads with it. ``redraw`` draws a
fresh system from the generator that meta.txt records.

save_system also writes arrays.bin: a 32-byte sha256, then m and n as two
little-endian uint64, then X (row-major), y and the present references as
little-endian float64, in _ARRAY_FILES order. The digest covers the exact
bytes of the text array files (each framed by its name and length) and
then every byte after it. The file is a cache: load_system takes the
arrays from it only when that digest matches and the file is exactly as
long as m, n and the present text files say, and otherwise parses the
text, so adding, deleting or editing any array file, or any byte of the
cache, makes it miss. Deleting it is always safe; the text files stay
canonical and a system loads to the same bits either way. It carries no
timestamp, so it too is a pure function of the system.

Text moves in blocks of TEXT_BLOCK bytes both ways. The writers format,
encode and write a block of rows at a time; the digest reads each text
file back a block at a time, framing it by the open file's size, and a
file whose read length differs from that size misses. A text file is
read whole only on a miss, to parse it. So save_system and a cached
load_system hold the arrays plus one block of text, never a whole file,
and no byte of a text file or of arrays.bin depends on the block size.
Left for later work, as it still grows with X: load_system's DenseMatrix
copy of X and the squared entries behind its norms (58 MB traced at tomo
grid 30), and arrays.bin, which stores X densely however many of its
entries are +0.0.
"""
from __future__ import annotations

import hashlib
import io
import math
import os
from dataclasses import dataclass
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


def _check_size(m: int, n: int) -> None:
    """An m x n float64 X must fit one numpy array: at most np.iinfo(np.intp).max bytes."""
    if 8 * m * n > np.iinfo(np.intp).max:
        raise ConfigurationError(f"a {m}x{n} X takes {8 * m * n} bytes of float64, more than "
                                 f"the {np.iinfo(np.intp).max} one array can hold")


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
        _check_size(self.m, self.n)


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
        _check_size(self.grid_n**2, self.oversample * self.grid_n**2)


def _retried(draw, spec: GenSpec | TomoSpec, failure: str) -> LinearSystem:
    """``draw(spec, s)`` at s = spec.seed, spec.seed + 1, ... (mod 2**64), up to GEN_MAX_ATTEMPTS.

    A draw that raises SingularMatrixError is retried at the next seed; after
    the last, the NumericalError says ``failure`` and the last draw's error.
    """
    last_error = None
    for attempt in range(GEN_MAX_ATTEMPTS):
        try:
            return draw(spec, (spec.seed + attempt) % 2**64)
        except SingularMatrixError as exc:
            last_error = exc
    raise NumericalError(f"{failure}: {last_error}")


def gen_gaussian(spec: GenSpec) -> LinearSystem:
    """Draw an i.i.d. standard-normal system for the requested regime.

    Draw order (row-major X, then the solution draw, then the noise draw for
    the inconsistent regime) is fixed so a spec reproduces byte-identical
    systems. Rank-degenerate draws are retried with seed+1, seed+2, ... up
    to GEN_MAX_ATTEMPTS before failing; retry seeds wrap mod 2**64, and the
    seed actually used is the one recorded on the system.
    """
    return _retried(
        _draw_gaussian, spec,
        f"gen_gaussian failed after {GEN_MAX_ATTEMPTS} attempts "
        f"(seeds {spec.seed} + 0..{GEN_MAX_ATTEMPTS - 1} mod 2**64)",
    )


def _draw_gaussian(spec: GenSpec, seed: int) -> LinearSystem:
    rng = Prng(seed)
    X = DenseMatrix(rng.gaussians(spec.m * spec.n).reshape(spec.m, spec.n))
    if numeric_rank(X) < min(spec.m, spec.n):
        raise SingularMatrixError(f"rank-degenerate draw at seed {seed}")
    beta = rng.gaussians(spec.n)
    if spec.regime is Regime.OVER_CONSISTENT:
        return LinearSystem(X, X.data @ beta, spec.regime, reference=beta, seed=seed)

    if spec.regime is Regime.UNDERDETERMINED:
        y = X.data @ beta
        # the drawn beta is NOT minimum-norm
        return LinearSystem(X, y, spec.regime, reference=least_norm_ref(X, y), seed=seed)

    # over-inconsistent: residual is a scaled projection onto null(X^T)
    w = rng.gaussians(spec.m)
    w_col = X.data @ least_squares_ref(X, w)
    with np.errstate(over="ignore"):  # a y or ||r||^2 that overflows is reported just below
        r = spec.noise_scale * (w - w_col)
        y = X.data @ beta + r
        r_sq = float(r @ r)
    if not (np.all(np.isfinite(y)) and math.isfinite(r_sq)):
        raise ConfigurationError(f"noise_scale {spec.noise_scale!r} overflows y or ||r||^2 "
                                 "in float64")
    if _norm(r) <= 1e-12 * _norm(w):
        raise SingularMatrixError("noise draw landed in the column space")
    return LinearSystem(X, y, spec.regime, reference=least_squares_ref(X, y), residual_ref=r,
                        seed=seed)


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
#
# A candidate line is the next pair of uniforms of the seed's stream, each
# mapped to a point on the grid's perimeter. It is dropped, and the next pair
# read, when both ends land on one side or when the chord crosses no cell of
# the grid (one along the top or right edge). The first n kept candidates are
# the lines, and the phantom's 12 uniforms follow the n-th kept pair. The
# candidates are traced in numpy blocks; every value is the IEEE result of the
# scalar trace, operation for operation, so the blocks change no bit.

#: knot parameters traced per block, 2N + 4 per candidate chord. This bounds a
#: block's transient arrays at any grid size: at most three float64 arrays of
#: this many entries, about 0.7 MB in all with the masks and gathered segments
TRACE_BLOCK_SLOTS = 2**14


def _perimeter_points(u, n_grid: int):
    """Side (0-3 counterclockwise from the bottom) and point of each position u in [0, 4N)."""
    side, frac = np.divmod(u, n_grid)
    side = side.astype(np.intp) % 4
    rest = n_grid - frac
    return side, np.choose(side, (frac, n_grid, rest, 0.0)), np.choose(side, (0.0, frac, n_grid, rest))


def _trace_chords(x0, y0, x1, y1, n_grid: int):
    """The in-grid segments of chords (x0, y0) -> (x1, y1), in (chord, knot) order.

    Returns each segment's chord index, cell (iy * N + ix) and length. A
    chord's knots are t = 0, 1 and every (k - x0) / dx and (k - y0) / dy in
    (0, 1), k = 0..N; the span between two consecutive distinct knots lies in
    the cell of its midpoint. A chord's length is math.hypot, which np.hypot
    differs from in the last bit on some inputs.
    """
    dx, dy = x1 - x0, y1 - y0
    k = np.arange(n_grid + 1.0)
    knots = np.empty((len(dx), 2 * n_grid + 4))
    knots[:, 0], knots[:, -1] = 0.0, 1.0
    # dx = 0 or dy = 0 gives no knot, and neither does a quotient past 1 that overflows
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        np.divide(k - x0[:, None], dx[:, None], out=knots[:, 1 : n_grid + 2])
        np.divide(k - y0[:, None], dy[:, None], out=knots[:, n_grid + 2 : -1])
    inner = knots[:, 1:-1]
    np.copyto(inner, 1.0, where=~((inner > 0.0) & (inner < 1.0)))  # a copy of t = 1 adds no span
    knots.sort(axis=1)
    span = np.diff(knots, axis=1)
    tm = knots[:, :-1] + knots[:, 1:]
    del knots, inner  # at most three arrays of the block's knot slots are alive at once
    tm *= 0.5
    ix = tm * dx[:, None]
    ix += x0[:, None]
    iy = np.multiply(tm, dy[:, None], out=tm)
    iy += y0[:, None]
    np.floor(ix, out=ix)
    np.floor(iy, out=iy)
    length = np.array([math.hypot(p, q) for p, q in zip(dx.tolist(), dy.tolist())])
    inside = (span > 0.0) & (ix >= 0.0) & (ix < n_grid) & (iy >= 0.0) & (iy < n_grid)
    inside &= (length > 0.0)[:, None]
    at = np.flatnonzero(inside)
    chord = at // span.shape[1]
    cell = np.multiply(iy, n_grid, out=iy)
    cell += ix
    return chord, cell.ravel()[at].astype(np.intp), span.ravel()[at] * length[chord]


def _trace_lines(rng: Prng, n_grid: int, n: int):
    """The first n kept candidates of rng's stream, traced into an N^2 x n matrix.

    Returns the matrix, the lines' midpoints, and the uniforms drawn past the
    n-th kept pair, in stream order.
    """
    data = np.zeros((n_grid * n_grid, n))
    midpoints = np.empty((n, 2))
    cap = max(1, TRACE_BLOCK_SLOTS // (2 * n_grid + 4))
    lines = 0
    while lines < n:
        left = n - lines
        # 3 candidates in 4 are kept, so 3/2 per missing line usually finish in
        # one block, and 6 more usually leave the phantom's uniforms drawn
        u = rng.uniforms(2 * min(cap, left + left // 2 + 6))
        side, x, y = _perimeter_points(u * (4.0 * n_grid), n_grid)
        pair = np.flatnonzero(side[0::2] != side[1::2])
        x0, y0, x1, y1 = x[0::2][pair], y[0::2][pair], x[1::2][pair], y[1::2][pair]
        chord, cell, seg = _trace_chords(x0, y0, x1, y1, n_grid)
        has_cell = np.bincount(chord, minlength=len(pair)) > 0
        kept = np.flatnonzero(has_cell)[:left]
        spare = u[:0]
        if len(kept) == left:  # the block holds the n-th line: no candidate after it counts
            cut = np.searchsorted(chord, kept[-1], side="right")
            chord, cell, seg = chord[:cut], cell[:cut], seg[:cut]
            spare = u[2 * pair[kept[-1]] + 2 :]
        # (line, knot) order, so the segments of a line that share a cell add up in order
        np.add.at(data, (cell, lines - 1 + np.cumsum(has_cell)[chord]), seg)
        midpoints[lines : lines + len(kept), 0] = 0.5 * (x0[kept] + x1[kept])
        midpoints[lines : lines + len(kept), 1] = 0.5 * (y0[kept] + y1[kept])
        lines += len(kept)
    return data, midpoints, spare


def gen_tomography(spec: TomoSpec) -> LinearSystem:
    """Underdetermined N^2 x (d N^2) line-sampling system with least-norm reference.

    Each candidate line is the next pair of uniforms, its two endpoints drawn
    uniformly on the grid boundary; a candidate is redrawn from the next pair
    when both ends land on one side or when the chord crosses no cell of the
    grid. The phantom's uniforms follow the n-th kept pair. Seeds whose line
    set fails the full-row-rank requirement of the least-norm oracle are
    retried with seed+1, ... (mod 2**64) like gen_gaussian.
    """
    return _retried(_draw_tomography, spec,
                    f"gen_tomography failed after {GEN_MAX_ATTEMPTS} attempts")


def _draw_tomography(spec: TomoSpec, seed: int) -> LinearSystem:
    n_grid = spec.grid_n
    n = spec.oversample * n_grid * n_grid
    rng = Prng(seed)
    data, midpoints, spare = _trace_lines(rng, n_grid, n)
    draws = iter(np.concatenate([spare, rng.uniforms(max(0, 12 - len(spare)))]).tolist())

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
    return LinearSystem(X, y, Regime.UNDERDETERMINED, reference=least_norm_ref(X, y), seed=seed)


# ---------------------------------------------------------------------------
# Text serialization

#: bytes of text per block: the writers format, encode and write at most this
#: many bytes of rows at once (one row is written whole, however long), and the
#: digest reads the text files this many bytes at a time. A dense block's floats,
#: strings and bytes take about 0.4 MiB at this size; at half of it a grid-10
#: tomography save spent about 0.1 ms more on the numpy calls made per block
TEXT_BLOCK = 2**17
#: the longest repr of a float64 ("-1.2345678901234567e-308"), plus its separator
_MAX_TOKEN = 25


def _rows(block: np.ndarray):
    """The tokens of each row of the float64 matrix ``block``: its entries' repr, in order.

    An entry whose bits are +0.0 is the constant "0.0", which is repr(0.0),
    without a call to repr; -0.0 goes through repr like any other value. In
    a block with no +0.0 entry the tokens are repr mapped over each row;
    otherwise each row is a list of "0.0" with its other entries filled in,
    found by one nonzero over the block's bits.
    """
    m, n = block.shape
    bits = block.view(np.uint64)
    if np.count_nonzero(bits) == block.size:
        yield from (map(repr, row) for row in block.tolist())
        return
    rows, cols = np.nonzero(bits)
    values = block[rows, cols].tolist()
    starts = np.searchsorted(rows, np.arange(m + 1)).tolist()
    cols = cols.tolist()
    for lo, hi in zip(starts[:-1], starts[1:]):
        tokens = ["0.0"] * n
        for j, value in zip(cols[lo:hi], values[lo:hi]):
            tokens[j] = repr(value)
        yield tokens


def _write_lines(path, header: str, blocks) -> None:
    """Write the line ``header``, then the lines of each block, encoded a block at a time."""
    with open(path, "wb") as fh:
        fh.write(f"{header}\n".encode())
        for lines in blocks:
            fh.write("\n".join([*lines, ""]).encode())


def write_matrix(path, matrix) -> None:
    """Write a matrix file: "m n", then a line of each row's entries.

    Rows are formatted, encoded and written a block at a time, so the text
    held at once is at most TEXT_BLOCK bytes, or one row where a row is longer.
    """
    data = matrix.data if isinstance(matrix, DenseMatrix) else np.asarray(matrix, dtype=float)
    m, n = data.shape
    step = max(1, TEXT_BLOCK // (_MAX_TOKEN * max(1, n)))
    blocks = (map(" ".join, _rows(data[lo : lo + step])) for lo in range(0, m, step))
    _write_lines(path, f"{m} {n}", blocks)


def write_vector(path, vec) -> None:
    """Write a vector file: its length, then a line of each entry.

    Entries are formatted, encoded and written a block at a time, so the
    text held at once is at most TEXT_BLOCK bytes.
    """
    vec = np.asarray(vec, dtype=float)
    step = TEXT_BLOCK // _MAX_TOKEN
    blocks = (next(_rows(vec[lo : lo + step].reshape(1, -1))) for lo in range(0, len(vec), step))
    _write_lines(path, str(len(vec)), blocks)


def _decode(path, data: bytes) -> str:
    try:
        return data.decode()
    except UnicodeDecodeError as exc:  # reported on the line that holds the first bad byte
        lineno = data[: exc.start].count(b"\n") + 1
        raise ParseError(path, lineno, f"not UTF-8 text: {exc.reason}") from None


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
    return DenseMatrix(_parse_matrix(path, _decode(path, Path(path).read_bytes())))


def read_vector(path) -> np.ndarray:
    return _parse_vector(path, _decode(path, Path(path).read_bytes()))


# ---------------------------------------------------------------------------
# Binary sidecar: a cache of the text array files, checked against their bytes

SIDECAR = "arrays.bin"

#: the text array files, in digest and sidecar order
_ARRAY_FILES = ("X.txt", "y.txt", "reference.txt", "residual.txt")


def _digest(files: list[Path], body) -> bytes | None:
    """sha256 over the text array ``files``, in _ARRAY_FILES order, then ``body``.

    Each file is framed by its name and its size, and fed to the hash a block
    of TEXT_BLOCK bytes at a time; ``body`` is the sidecar's bytes after the
    digest, as buffers. None if the bytes read from a file are not as many as
    its size said.
    """
    h = hashlib.sha256()
    for path in files:
        with open(path, "rb", buffering=0) as fh:
            size = os.fstat(fh.fileno()).st_size
            h.update(f"{path.name} {size}\n".encode())
            while block := fh.read(TEXT_BLOCK):
                h.update(block)
                size -= len(block)
        if size:
            return None
    for part in body:
        h.update(part)
    return h.digest()


def _read_sidecar(path: Path, files: list[Path]) -> dict[str, np.ndarray] | None:
    """The sidecar's arrays, by file name, if it is the cache of exactly ``files``, else None.

    The arrays are read-only views of the file's bytes, which live until the
    caller's DenseMatrix and LinearSystem have taken their copies.
    """
    try:
        blob = path.read_bytes()
    except OSError:
        return None
    m, n = int.from_bytes(blob[32:40], "little"), int.from_bytes(blob[40:48], "little")
    sizes = {"X.txt": m * n, "y.txt": m, "reference.txt": n, "residual.txt": m}
    counts = [sizes[file.name] for file in files]
    if len(blob) != 48 + 8 * sum(counts) or _digest(files, [memoryview(blob)[32:]]) != blob[:32]:
        return None
    floats = np.frombuffer(blob, "<f8", offset=48)
    arrays = dict(zip((file.name for file in files), np.split(floats, np.cumsum(counts)[:-1])))
    arrays["X.txt"] = arrays["X.txt"].reshape(m, n)
    return arrays


def save_system(system: LinearSystem, directory, spec: GenSpec | TomoSpec | None = None) -> None:
    """Write a system directory; meta.txt records ``spec``, the draw's generator, for redraw."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    present = zip(_ARRAY_FILES, (system.X.data, system.y, system.reference, system.residual_ref))
    arrays = {name: values for name, values in present if values is not None}
    for name in _ARRAY_FILES:
        if name not in arrays:
            (directory / name).unlink(missing_ok=True)
    for name, values in arrays.items():
        (write_matrix if name == "X.txt" else write_vector)(directory / name, values)
    body = [np.array(system.X.data.shape, "<u8"),
            *(np.ascontiguousarray(values, "<f8") for values in arrays.values())]
    digest = _digest([directory / name for name in arrays], body)
    if digest is None:
        raise OSError(f"{directory}: a text array file changed while it was saved")
    with open(directory / SIDECAR, "wb") as fh:
        fh.write(digest)
        for part in body:
            fh.write(part)
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
    meta, at = {}, {}  # at: the line of each key's last entry
    text = _decode(path, path.read_bytes())
    # lines end at \n, \r\n or \r, as in a file opened in text mode (str.splitlines ends more)
    for lineno, line in enumerate(io.StringIO(text, newline=None), start=1):
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
        meta[parts[0]], at[parts[0]] = parts[1], lineno
    if "regime" not in meta:
        raise ParseError(path, 1, "meta.txt is missing the regime entry")
    if meta["regime"] not in {r.value for r in Regime}:
        raise ParseError(path, at["regime"], f"unknown regime {meta['regime']!r}")
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

    The text array files are hashed a block at a time; their values come
    from the sidecar when it holds the digest of exactly these bytes, and
    otherwise each file is read whole and parsed.
    """
    directory = Path(directory)
    for name in ("X.txt", "y.txt"):
        if not (directory / name).exists():
            raise ConfigurationError(f"missing system file: {directory / name}")
    meta = load_meta(directory)
    files = [directory / name for name in _ARRAY_FILES if (directory / name).exists()]
    arrays = _read_sidecar(directory / SIDECAR, files)
    if arrays is None:
        arrays = {
            path.name: (_parse_matrix if path.name == "X.txt" else _parse_vector)(
                path, _decode(path, path.read_bytes())
            )
            for path in files
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
