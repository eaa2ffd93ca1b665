"""Problem generators and system directory serialization."""
from __future__ import annotations

import hashlib
import math
import os
import tempfile
import tracemalloc
from dataclasses import replace
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kaczgs import cli, problems
from kaczgs.errors import ConfigurationError, ParseError
from kaczgs.linalg import DenseMatrix, LinearSystem, Regime
from kaczgs.problems import (
    SIDECAR,
    GenSpec,
    TomoSpec,
    gen_gaussian,
    gen_tomography,
    load_meta,
    load_system,
    read_matrix,
    read_vector,
    redraw,
    save_system,
    write_matrix,
    write_vector,
)
from kaczgs.sampling import Prng
from kaczgs.solvers import SolveConfig, SolverKind, run

from conftest import RefGenerator


def _replay_drawn_beta(system, m, n):
    """Re-derive the generator's drawn beta by replaying the documented draw order."""
    rng = RefGenerator(system.seed)
    for _ in range(m * n):
        rng.gaussian()
    return np.array([rng.gaussian() for _ in range(n)])


class TestGenGaussian:
    def test_over_consistent_reference_solves_system(self):
        sys_ = gen_gaussian(GenSpec(m=4, n=2, regime=Regime.OVER_CONSISTENT, seed=9))
        assert np.linalg.norm(sys_.X.data @ sys_.reference - sys_.y) < 1e-10

    def test_over_inconsistent_residual_orthogonal(self):
        sys_ = gen_gaussian(GenSpec(m=4, n=2, regime=Regime.OVER_INCONSISTENT, seed=9))
        r = sys_.residual_ref
        lhs = np.linalg.norm(sys_.X.data.T @ r)
        assert lhs < 1e-10 * np.sqrt(sys_.X.frob_sq) * np.linalg.norm(r)
        assert np.linalg.norm(r) > 0

    def test_underdetermined_reference_is_minimum_norm(self):
        sys_ = gen_gaussian(GenSpec(m=2, n=4, regime=Regime.UNDERDETERMINED, seed=9))
        beta_drawn = _replay_drawn_beta(sys_, 2, 4)
        assert np.linalg.norm(sys_.X.data @ beta_drawn - sys_.y) < 1e-10
        assert np.linalg.norm(sys_.reference) <= np.linalg.norm(beta_drawn)

    def test_deterministic_in_spec(self):
        spec = GenSpec(m=10, n=3, regime=Regime.OVER_CONSISTENT, seed=77)
        a, b = gen_gaussian(spec), gen_gaussian(spec)
        assert np.array_equal(a.X.data, b.X.data)
        assert np.array_equal(a.y, b.y)
        assert np.array_equal(a.reference, b.reference)

    def test_noise_scale_scales_residual(self):
        small = gen_gaussian(GenSpec(m=12, n=3, regime=Regime.OVER_INCONSISTENT, seed=5,
                                     noise_scale=0.5))
        big = gen_gaussian(GenSpec(m=12, n=3, regime=Regime.OVER_INCONSISTENT, seed=5,
                                   noise_scale=2.0))
        ratio = np.linalg.norm(big.residual_ref) / np.linalg.norm(small.residual_ref)
        assert ratio == pytest.approx(4.0, rel=1e-10)

    def test_invalid_specs_rejected(self):
        with pytest.raises(ConfigurationError):
            GenSpec(m=3, n=3, regime=Regime.OVER_CONSISTENT, seed=0)
        with pytest.raises(ConfigurationError):
            GenSpec(m=5, n=2, regime=Regime.UNDERDETERMINED, seed=0)
        with pytest.raises(ConfigurationError):
            GenSpec(m=5, n=2, regime=Regime.OVER_INCONSISTENT, seed=0, noise_scale=0.0)
        for seed in (-1, 2**64):
            with pytest.raises(ConfigurationError, match="64-bit"):
                GenSpec(m=5, n=2, regime=Regime.OVER_CONSISTENT, seed=seed)

    def test_retry_seed_wraps_past_2_64(self, monkeypatch):
        # force one rank-degenerate draw: the retry after 2**64 - 1 is seed 0
        import kaczgs.problems as problems

        real_rank, calls = problems.numeric_rank, []

        def degenerate_first(X):
            calls.append(X)
            return 0 if len(calls) == 1 else real_rank(X)

        monkeypatch.setattr(problems, "numeric_rank", degenerate_first)
        wrapped = gen_gaussian(GenSpec(m=6, n=2, regime=Regime.OVER_CONSISTENT, seed=2**64 - 1))
        monkeypatch.undo()
        plain = gen_gaussian(GenSpec(m=6, n=2, regime=Regime.OVER_CONSISTENT, seed=0))
        assert len(calls) == 2
        assert wrapped.seed == plain.seed == 0
        assert np.array_equal(wrapped.X.data, plain.X.data)


class TestGenTomography:
    def test_structure(self):
        spec = TomoSpec(grid_n=4, oversample=2, seed=5)
        sys_ = gen_tomography(spec)
        n_grid = spec.grid_n
        assert (sys_.m, sys_.n) == (n_grid**2, spec.oversample * n_grid**2)
        assert sys_.regime is Regime.UNDERDETERMINED
        data = sys_.X.data
        assert np.all(data >= 0.0)
        # one line crosses at most 2N - 1 cells
        col_nnz = (data > 0).sum(axis=0)
        assert col_nnz.max() <= 2 * n_grid
        assert np.all(sys_.y >= 0.0)
        assert sys_.reference is not None
        assert np.linalg.norm(data @ sys_.reference - sys_.y) <= 1e-8 * np.linalg.norm(sys_.y)

    def test_line_lengths_bounded_by_diameter(self):
        sys_ = gen_tomography(TomoSpec(grid_n=5, oversample=2, seed=1))
        diameter = 5.0 * np.sqrt(2.0)
        col_sums = sys_.X.data.sum(axis=0)  # total in-grid length of each line
        assert np.all(col_sums <= diameter + 1e-9)
        assert np.all(col_sums > 0.0)

    def test_oversample_below_two_rejected(self):
        with pytest.raises(ConfigurationError):
            TomoSpec(grid_n=4, oversample=1, seed=0)

    def test_seed_past_64_bits_rejected(self):
        with pytest.raises(ConfigurationError, match="64-bit"):
            TomoSpec(grid_n=4, oversample=2, seed=2**64)

    def test_deterministic(self):
        a = gen_tomography(TomoSpec(grid_n=4, oversample=2, seed=5))
        b = gen_tomography(TomoSpec(grid_n=4, oversample=2, seed=5))
        assert np.array_equal(a.X.data, b.X.data)
        assert np.array_equal(a.y, b.y)

    def test_small_instance_rk_end_to_end(self):
        sys_ = gen_tomography(TomoSpec(grid_n=4, oversample=2, seed=5))
        cfg = SolveConfig(max_iter=200_000, tol=1e-6, record_every=500)
        trace = run(sys_, SolverKind.RK, cfg, Prng(5))
        assert trace.converged
        assert trace.records[-1][1] < 1e-6


#: sha256 of X.txt of `kaczgs tomo --grid-n <grid> --oversample <d> --seed <seed>`, as the
#: scalar per-line trace wrote it. X is elementwise arithmetic, with no BLAS.
TOMO_X_SHA256 = [
    ("10", "3", "1", "c24d855087d8fabdd4c93605ad6e481f5228af5d56aca170d1027ec5afe496a8"),
    ("10", "3", "7", "32fed6923c8ce4f6c65c3ff850a1323903741a3cccfc9f3dd1edd2558b4d1346"),
    ("10", "3", "11", "76abcade9f374acb1f68168213c228c8e087328775a39dcc2148da1d7046a97b"),
    ("5", "3", "2", "5c4760dbeeaf56fe2790fb487b1cf06c50d12327e0e3d1ee57d9d97d86e3ec18"),
    ("4", "2", "5", "246349eca6a0eefd90dfdcb31b82259cbf9d785f867a6e15caff5c72ca804b4d"),
    ("20", "3", "5", "ef355b4c1a01617732c217bf945c1ffaa408beededce1a2bfc29a276edf9a214"),
]


class TestGoldenDraws:
    """The whole draw order of each generator, pinned by the sha256 of X.txt.

    The Gaussian file fixes the Box-Muller pairing of X's entries; the
    tomography files fix every endpoint draw, the rejected ones included.
    """

    @pytest.mark.parametrize("argv, digest", [
        (["gen", "--m", "6", "--n", "3", "--regime", "over-consistent", "--seed", "1"],
         "2b3d26f95af29b4ace263b72e55747b9e76b4c30c4d3e5b4b85210efe6fbefed"),
        (["tomo", "--grid-n", "3", "--oversample", "2", "--seed", "1"],
         "9bdd9a88363eccae0cf6861807e2ac44b51ee8db1b71030d5d5e2b97cb85b822"),
        *(
            (["tomo", "--grid-n", grid, "--oversample", oversample, "--seed", seed], digest)
            for grid, oversample, seed, digest in TOMO_X_SHA256
        ),
    ], ids=["gen", "tomo", *("tomo-{}x{}-s{}".format(*key[:3]) for key in TOMO_X_SHA256)])
    def test_x_file_digest(self, tmp_path, argv, digest):
        assert cli.main([*argv, "--out", str(tmp_path)]) == 0
        assert hashlib.sha256((tmp_path / "X.txt").read_bytes()).hexdigest() == digest


# --- the scalar chord tracer, kept as the oracle of the block tracer ----------
# One chord at a time, Siddon-style: every knot (k - x0) / dx and (k - y0) / dy
# inside (0, 1) in a set, each span between sorted knots in its midpoint's cell.

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


def _oracle_lines(stream, n_grid: int, n: int):
    """The first n kept chords of a uniform stream, traced one by one.

    Returns the N^2 x n matrix, the lines' midpoints and the number of
    uniforms read.
    """
    perimeter = 4.0 * n_grid
    data = np.zeros((n_grid * n_grid, n))
    midpoints = np.empty((n, 2))
    read = 0
    for j in range(n):
        while True:
            u0, u1 = stream[read] * perimeter, stream[read + 1] * perimeter
            read += 2
            if int(u0 // n_grid) % 4 == int(u1 // n_grid) % 4:
                continue  # both endpoints on one side
            p0 = _perimeter_point(u0, n_grid)
            p1 = _perimeter_point(u1, n_grid)
            cells = _trace_line(p0, p1, n_grid)
            if cells:
                break
        for cell, seg in cells:
            data[cell, j] += seg
        midpoints[j] = 0.5 * (p0[0] + p1[0]), 0.5 * (p0[1] + p1[1])
    return data, midpoints, read


def _position(n_grid):
    """A perimeter position in [0, 4N): anywhere, on the lattice, on a 1/8 grid, or i/d.

    Integers are lattice points, and multiples of N corners. Chords between
    i/d positions pass near lattice points, where an x knot and a y knot a
    few ulps apart can put two spans of one chord in one cell.
    """
    return st.one_of(
        st.floats(0.0, 4.0 * n_grid, exclude_max=True),
        st.integers(0, 4 * n_grid - 1).map(float),
        st.integers(0, 32 * n_grid - 1).map(lambda i: i / 8.0),
        st.integers(3, 12).flatmap(lambda d: st.integers(0, 4 * n_grid * d - 1).map(lambda i: i / d)),
    )


@st.composite
def _chords(draw):
    """A grid size and a batch of perimeter-position pairs, axis-parallel ones included.

    Side 0 at (f, 0) faces side 2 at 3N - f, and side 1 at (N, f) faces side 3
    at 4N - f, so those pairs have dx = 0 and dy = 0 exactly when f is on the
    1/8 grid.
    """
    n_grid = draw(st.integers(2, 9))
    f = st.integers(1, 8 * n_grid - 1).map(lambda i: i / 8.0)
    pairs = st.one_of(
        st.tuples(_position(n_grid), _position(n_grid)),
        f.map(lambda f: (f, 3.0 * n_grid - f)),
        f.map(lambda f: (n_grid + f, 4.0 * n_grid - f)),
    )
    return n_grid, draw(st.lists(pairs, min_size=1, max_size=12))


class _Spliced:
    """A generator whose uniforms are ``head``, then the seed's own stream."""

    def __init__(self, head, seed):
        self.head, self.rest = np.array(head, dtype=float), Prng(seed)

    def uniforms(self, k):
        take, self.head = self.head[:k], self.head[k:]
        return np.concatenate([take, self.rest.uniforms(k - len(take))])


#: the chord (4, 11/3) -> (0, 1) of the 4 x 4 grid, as a pair of uniforms: its x and y
#: knots at the lattice point (3, 3) round apart, so that two of its spans lie in cell 15
REPEATED_CELL = (7.666666666666667 / 16.0, 15.0 / 16.0)


class TestChordTracer:
    """The block tracer against the scalar oracle above, bit for bit."""

    @staticmethod
    def _assert_traces_match(n_grid, pairs):
        u = np.array(pairs, dtype=float).ravel()
        side, x, y = problems._perimeter_points(u, n_grid)
        points = [_perimeter_point(v, n_grid) for v in u.tolist()]
        assert list(zip(x.tolist(), y.tolist())) == points
        assert side.tolist() == [int(v // n_grid) % 4 for v in u.tolist()]
        chord, cell, seg = problems._trace_chords(x[0::2], y[0::2], x[1::2], y[1::2], n_grid)
        for i in range(len(pairs)):
            expected = _trace_line(points[2 * i], points[2 * i + 1], n_grid)
            mine = chord == i
            assert list(zip(cell[mine].tolist(), seg[mine].tolist())) == expected, pairs[i]

    @settings(max_examples=300, deadline=None)
    @given(_chords())
    def test_block_trace_is_the_scalar_trace(self, case):
        self._assert_traces_match(*case)

    @pytest.mark.parametrize("n_grid, pairs", [
        # (0, 0) -> (4, 2) through the lattice point (2, 1): t = 1/2 is an x and a y knot
        (4, [(0.0, 4.0 + 2.0)]),
        # the diagonal (0, 0) -> (4, 4) through every lattice point, and the other diagonal
        (4, [(0.0, 8.0), (4.0, 12.0)]),
        # corners to corners along the edges, and one chord of length 0
        (3, [(0.0, 3.0), (3.0, 6.0), (6.0, 9.0), (9.0, 0.0), (5.5, 5.5)]),
        # along the top edge y = N and the right edge x = N: no cell in the grid
        (5, [(15.0, 11.0), (10.0, 6.5)]),
    ], ids=["lattice-point", "diagonals", "edges-and-a-point", "top-and-right-edges"])
    def test_chords_through_lattice_points_and_along_edges(self, n_grid, pairs):
        self._assert_traces_match(n_grid, pairs)

    @pytest.mark.parametrize("n_grid, oversample, seed, head", [
        (2, 2, 3, ()), (3, 2, 1, ()), (4, 3, 8, ()), (7, 2, 4, ()), (4, 2, 5, REPEATED_CELL),
    ])
    def test_lines_are_the_oracle_lines(self, n_grid, oversample, seed, head):
        n = oversample * n_grid * n_grid
        data, midpoints, spare = problems._trace_lines(_Spliced(head, seed), n_grid, n)
        stream = _Spliced(head, seed).uniforms(4 * n + 12).tolist()
        want, want_mid, read = _oracle_lines(stream, n_grid, n)
        assert data.tobytes() == want.tobytes()
        assert midpoints.tobytes() == want_mid.tobytes()
        # the spare uniforms are the stream right after the n-th kept pair
        assert spare.tolist() == stream[read : read + len(spare)]

    def test_repeated_cell_chord(self):
        p0, p1 = (_perimeter_point(u * 16.0, 4) for u in REPEATED_CELL)
        cells = [cell for cell, _ in _trace_line(p0, p1, 4)]
        assert cells.count(15) == 2

    def test_a_chord_with_no_cell_is_redrawn(self, monkeypatch):
        # (0.75, 0.6) puts a chord along the top edge, (0.5, 0.3) one along the right
        # edge; their ends lie on two sides but the chords cross no cell, so the
        # generator must read past both pairs to the seed's own stream
        head = [0.75, 0.6, 0.5, 0.3]
        for u0, u1 in zip(head[0::2], head[1::2]):
            p0, p1 = _perimeter_point(u0 * 16.0, 4), _perimeter_point(u1 * 16.0, 4)
            assert int(u0 * 4) != int(u1 * 4) and _trace_line(p0, p1, 4) == []

        spec = TomoSpec(grid_n=4, oversample=2, seed=5)
        plain = gen_tomography(spec)
        monkeypatch.setattr(problems, "Prng", lambda seed: _Spliced(head, seed))
        spliced = gen_tomography(spec)
        for a, b in [(plain.X.data, spliced.X.data), (plain.y, spliced.y),
                     (plain.reference, spliced.reference)]:
            assert a.tobytes() == b.tobytes()

    def test_block_bound_changes_no_bit(self, monkeypatch):
        spec = TomoSpec(grid_n=4, oversample=2, seed=5)
        plain = gen_tomography(spec)
        blocks, spares = [], []
        real_uniforms, real_lines = Prng.uniforms, problems._trace_lines

        def uniforms(self, k):
            blocks.append(real_uniforms(self, k))
            return blocks[-1]

        def trace_lines(*args):
            out = real_lines(*args)
            spares.append(len(out[2]))
            return out

        monkeypatch.setattr(Prng, "uniforms", uniforms)
        monkeypatch.setattr(problems, "_trace_lines", trace_lines)
        monkeypatch.setattr(problems, "TRACE_BLOCK_SLOTS", 3 * (2 * 4 + 4))  # 3 candidates a block
        small = gen_tomography(spec)
        for a, b in [(plain.X.data, small.X.data), (plain.y, small.y),
                     (plain.reference, small.reference)]:
            assert a.tobytes() == b.tobytes()
        # fewer than 12 uniforms were left after the n-th line, so the phantom drew more
        assert spares[0] < 12 and blocks[-1].size == 12 - spares[0]
        # some block's last candidate has both ends on one side and is dropped
        sides = [(u * 16.0 // 4) % 4 for u in blocks[:-1]]
        assert all(len(u) == 6 for u in blocks[:-1])
        assert any(s[4] == s[5] for s in sides)


# finite float64 values that text and binary must both carry exactly
_EDGE_VALUES = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, -1e-300, 1e-300]
_entries = st.one_of(
    st.sampled_from(_EDGE_VALUES),
    st.floats(min_value=-1e150, max_value=1e150, allow_nan=False, allow_subnormal=True),
)
# vectors carry no norm cache, so they also reach 1e+300 and the largest float
_vector_entries = st.one_of(
    _entries, st.sampled_from([1e300, -1e300, 1.7976931348623157e308, -1.7976931348623157e308])
)
# the writers take any finite value: signed zeros, and values near 1e-300 and 1e+300 of
# either sign
_text_entries = st.one_of(_vector_entries, st.sampled_from([0.0, -0.0]), *(
    st.floats(min_value=lo, max_value=hi)
    for lo, hi in [(1e-301, 1e-299), (-1e-299, -1e-301), (1e299, 1e301), (-1e301, -1e299)]
))


@st.composite
def _zero_masked_matrices(draw):
    """Matrices of edge values under a zero mask, in C, Fortran, transposed or strided layout.

    The shape is 1x1, 1xn, mx1 or mxn. The mask sets +0.0 on every entry,
    on none (a drawn +0.0 becomes 1.0, so no +0.0 is left), on random
    entries, or on whole rows and columns.
    """
    m = draw(st.sampled_from([1, draw(st.integers(2, 7))]))
    n = draw(st.sampled_from([1, draw(st.integers(2, 7))]))
    data = np.array(draw(st.lists(_text_entries, min_size=m * n, max_size=m * n))).reshape(m, n)
    mask = draw(st.sampled_from(["all", "none", "entries", "rows and columns"]))
    flags = np.array(draw(st.lists(st.booleans(), min_size=m * n + m + n, max_size=m * n + m + n)))
    if mask == "all":
        data[:] = 0.0
    elif mask == "none":
        data[data.view(np.uint64) == 0] = 1.0
    elif mask == "entries":
        data[flags[: m * n].reshape(m, n)] = 0.0
    else:
        data[flags[m * n : m * n + m]] = 0.0
        data[:, flags[m * n + m :]] = 0.0
    layout = draw(st.sampled_from(["C", "F", "transposed", "strided"]))
    if layout == "F":
        return np.asfortranarray(data)
    if layout == "transposed":
        return np.ascontiguousarray(data.T).T
    if layout == "strided":
        wide = np.full((m, 2 * n), np.nan)
        wide[:, ::2] = data
        return wide[:, ::2]
    return data


def _repr_lines(header: str, lines) -> bytes:
    """A text file as written before +0.0 entries were special-cased: repr of every entry."""
    return "\n".join([header, *lines, ""]).encode()


class TestTextFormats:
    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(_zero_masked_matrices())
    def test_bytes_are_the_repr_of_every_entry(self, data):
        m, n = data.shape
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "X.txt"
            write_matrix(path, data)
            text = path.read_bytes()
            assert text == _repr_lines(
                f"{m} {n}", (" ".join(map(repr, row)) for row in data.tolist())
            )
            with np.errstate(over="ignore"):
                squares_fit = math.isfinite(float((data * data).sum()))
            if squares_fit:  # DenseMatrix rejects entries whose squared norms overflow
                assert read_matrix(path).data.tobytes() == np.ascontiguousarray(data).tobytes()
            # every row and column as a vector, strided views included
            for vec in [*data, *data.T]:
                path = Path(tmp) / "v.txt"
                write_vector(path, vec)
                text = path.read_bytes()
                assert text == _repr_lines(str(len(vec)), map(repr, vec.tolist()))
                assert read_vector(path).tobytes() == np.ascontiguousarray(vec).tobytes()

    @pytest.mark.parametrize("zeros", ["none", "some rows", "every other entry"])
    def test_bytes_of_many_blocks_are_the_repr_of_every_entry(self, tmp_path, rng_numpy, zeros):
        # TEXT_BLOCK // 1000 rows of 40 entries, or TEXT_BLOCK // 25 entries of a vector, are
        # formatted at a time; the blocks of one file take the no-zero path, the +0.0 path or
        # a mix of the two
        m = 4 * problems.TEXT_BLOCK // 1000 + 7
        data = rng_numpy.normal(size=(m, 40))
        if zeros == "some rows":
            data[m // 3 : m // 3 + 10] = 0.0
            data[-5, 7] = 0.0
        elif zeros == "every other entry":
            data.flat[::2] = 0.0
        vec = data.ravel()
        write_matrix(tmp_path / "X.txt", data)
        write_vector(tmp_path / "v.txt", vec)
        assert (tmp_path / "X.txt").read_bytes() == _repr_lines(
            f"{m} 40", (" ".join(map(repr, row)) for row in data.tolist())
        )
        assert (tmp_path / "v.txt").read_bytes() == _repr_lines(str(len(vec)),
                                                                map(repr, vec.tolist()))

    def test_matrix_roundtrip_bit_exact(self, tmp_path, rng_numpy):
        values = rng_numpy.normal(size=(7, 3)) * np.exp(rng_numpy.normal(size=(7, 3)) * 5)
        path = tmp_path / "X.txt"
        write_matrix(path, values)
        back = read_matrix(path)
        assert np.array_equal(back.data, values)

    def test_vector_roundtrip_bit_exact(self, tmp_path):
        vec = np.array([0.1, -1e-300, 3.0, 7.25e100, 0.0])
        path = tmp_path / "v.txt"
        write_vector(path, vec)
        assert np.array_equal(read_vector(path), vec)

    def test_hand_written_identity(self, tmp_path):
        path = tmp_path / "X.txt"
        path.write_text("2 2\n1 0\n0 1\n")
        assert np.array_equal(read_matrix(path).data, np.eye(2))

    def test_malformed_row_reports_line(self, tmp_path):
        path = tmp_path / "X.txt"
        path.write_text("2 2\n1 0\n0\n")
        with pytest.raises(ParseError, match=r"X\.txt:3"):
            read_matrix(path)

    def test_bad_number_reports_line(self, tmp_path):
        path = tmp_path / "v.txt"
        path.write_text("2\n1.5\nbogus\n")
        with pytest.raises(ParseError, match=r"v\.txt:3"):
            read_vector(path)

    @pytest.mark.parametrize("read", [read_matrix, read_vector])
    def test_non_utf8_byte_reports_line(self, tmp_path, read):
        path = tmp_path / "a.txt"
        path.write_bytes(b"2 1\n1\n\xff\n")
        with pytest.raises(ParseError, match=r"a\.txt:3: not UTF-8 text"):
            read(path)

    def test_empty_matrix_file(self, tmp_path):
        path = tmp_path / "X.txt"
        path.write_text("")
        with pytest.raises(ParseError):
            read_matrix(path)

    def test_extra_matrix_row_rejected(self, tmp_path):
        path = tmp_path / "X.txt"
        path.write_text("2 2\n1 0\n0 1\n5 6\n")
        with pytest.raises(ParseError, match=r"X\.txt:4: extra line after the 2 matrix rows"):
            read_matrix(path)

    def test_extra_vector_value_rejected(self, tmp_path):
        path = tmp_path / "v.txt"
        path.write_text("2\n1.5\n2.5\n\n3.5\n")
        with pytest.raises(ParseError, match=r"v\.txt:5: extra line after the 2 values"):
            read_vector(path)

    def test_trailing_blank_lines_accepted(self, tmp_path):
        (tmp_path / "X.txt").write_text("2 2\n1 0\n0 1\n\n  \n")
        (tmp_path / "v.txt").write_text("2\n1.5\n2.5\n\n")
        assert np.array_equal(read_matrix(tmp_path / "X.txt").data, np.eye(2))
        assert np.array_equal(read_vector(tmp_path / "v.txt"), [1.5, 2.5])

    def test_negative_count_rejected(self, tmp_path):
        path = tmp_path / "v.txt"
        path.write_text("-1\n")
        with pytest.raises(ParseError, match=r"v\.txt:1: negative"):
            read_vector(path)

    def test_system_with_extra_rows_rejected(self, tmp_path):
        # a 3-row X and 3-value y under 2-row headers used to load as 2x2
        (tmp_path / "X.txt").write_text("2 2\n1 0\n0 1\n1 1\n")
        (tmp_path / "y.txt").write_text("2\n1.0\n2.0\n3.0\n")
        (tmp_path / "meta.txt").write_text("regime over-consistent\n")
        with pytest.raises(ParseError, match=r"X\.txt:4"):
            load_system(tmp_path)


class TestSystemDirectories:
    def test_roundtrip_all_regimes(self, tmp_path):
        for regime, shape in [
            (Regime.OVER_CONSISTENT, (6, 2)),
            (Regime.OVER_INCONSISTENT, (6, 2)),
            (Regime.UNDERDETERMINED, (2, 6)),
        ]:
            spec = GenSpec(m=shape[0], n=shape[1], regime=regime, seed=13)
            sys_ = gen_gaussian(spec)
            target = tmp_path / regime.value
            save_system(sys_, target, spec)
            back = load_system(target)
            assert np.array_equal(back.X.data, sys_.X.data)
            assert np.array_equal(back.y, sys_.y)
            assert np.array_equal(back.reference, sys_.reference)
            assert back.regime is sys_.regime
            assert back.seed == sys_.seed
            if regime is Regime.OVER_INCONSISTENT:
                assert np.array_equal(back.residual_ref, sys_.residual_ref)
            meta = load_meta(target)
            assert meta["kind"] == "gaussian"

    def test_save_twice_byte_identical(self, tmp_path):
        sys_ = gen_gaussian(GenSpec(m=5, n=2, regime=Regime.OVER_CONSISTENT, seed=3))
        save_system(sys_, tmp_path / "a")
        save_system(sys_, tmp_path / "b")
        for name in ("X.txt", "y.txt", "reference.txt", "meta.txt", SIDECAR):
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()

    def test_missing_y_named(self, tmp_path):
        sys_ = gen_gaussian(GenSpec(m=5, n=2, regime=Regime.OVER_CONSISTENT, seed=3))
        save_system(sys_, tmp_path / "sys")
        (tmp_path / "sys" / "y.txt").unlink()
        with pytest.raises(ConfigurationError, match="y.txt"):
            load_system(tmp_path / "sys")

    def test_corrupt_reference_fails_invariants(self, tmp_path):
        sys_ = gen_gaussian(GenSpec(m=5, n=2, regime=Regime.OVER_CONSISTENT, seed=3))
        save_system(sys_, tmp_path / "sys")
        write_vector(tmp_path / "sys" / "reference.txt", np.array([100.0, -100.0]))
        with pytest.raises(ConfigurationError, match="reference"):
            load_system(tmp_path / "sys")

    def test_meta_without_regime(self, tmp_path):
        sys_ = gen_gaussian(GenSpec(m=5, n=2, regime=Regime.OVER_CONSISTENT, seed=3))
        save_system(sys_, tmp_path / "sys")
        (tmp_path / "sys" / "meta.txt").write_text("seed 3\n")
        with pytest.raises(ParseError, match="regime"):
            load_system(tmp_path / "sys")

    # a seed that is not an integer, or lies outside [0, 2**64), is named with its line
    @pytest.mark.parametrize("seed", ["abc", "1.5", "-7", str(2**64)])
    def test_malformed_or_out_of_range_meta_seed(self, tmp_path, seed):
        sys_ = gen_gaussian(GenSpec(m=5, n=2, regime=Regime.OVER_CONSISTENT, seed=3))
        save_system(sys_, tmp_path / "sys")
        meta = tmp_path / "sys" / "meta.txt"
        meta.write_text(meta.read_text().replace("seed 3\n", f"seed {seed}\n"))
        with pytest.raises(ParseError, match=f"meta.txt:2: seed '{seed}'"):
            load_system(tmp_path / "sys")

    @pytest.mark.parametrize("spec, meta", [
        (GenSpec(m=6, n=2, regime=Regime.OVER_INCONSISTENT, seed=3, noise_scale=0.5),
         "regime over-inconsistent\nseed 3\nkind gaussian\nnoise_scale 0.5\n"),
        (TomoSpec(grid_n=3, oversample=2, seed=4),
         "regime underdetermined\nseed 4\nkind tomography\ngrid_n 3\noversample 2\n"),
    ], ids=["gaussian", "tomography"])
    def test_meta_records_the_generator_and_redraw_follows_it(self, tmp_path, spec, meta):
        generate = gen_gaussian if isinstance(spec, GenSpec) else gen_tomography
        save_system(generate(spec), tmp_path, spec)
        assert (tmp_path / "meta.txt").read_text() == meta
        again = redraw(tmp_path, load_system(tmp_path), 9)
        expected = generate(replace(spec, seed=9))
        assert np.array_equal(again.X.data, expected.X.data)
        assert np.array_equal(again.y, expected.y)
        assert again.seed == expected.seed

    def test_redraw_without_generator_metadata(self, tmp_path):
        sys_ = gen_gaussian(GenSpec(m=5, n=2, regime=Regime.OVER_CONSISTENT, seed=3))
        save_system(sys_, tmp_path)
        assert (tmp_path / "meta.txt").read_text() == "regime over-consistent\nseed 3\n"
        with pytest.raises(ConfigurationError, match="generator metadata"):
            redraw(tmp_path, sys_, 9)


_sidecar_settings = settings(max_examples=40, deadline=None, derandomize=True, database=None)


@st.composite
def _edge_systems(draw):
    """Over-inconsistent systems built from edge values that pass validation.

    X entries stay within 1e150 (DenseMatrix rejects overflowing squared
    norms). The last row of X is signed zeros and the residual is zero
    elsewhere, so X^T r is exactly zero whatever the residual's last entry.
    A reference drawn with a residual must solve X ref = y - r, and one
    drawn without must meet the normal equations X^T (y - X ref) = 0, so y
    is computed from it: y = X ref + r, with r the residual if one is drawn
    and else zero but for y's drawn last entry. The reference is signed
    zeros but for one entry within 1e150, which makes each entry of X ref
    one rounded product.
    """
    m = draw(st.integers(2, 5))
    n = draw(st.integers(1, m - 1))
    data = draw(st.lists(_entries, min_size=(m - 1) * n, max_size=(m - 1) * n))
    zeros = draw(st.lists(st.sampled_from([0.0, -0.0]), min_size=n + m - 1, max_size=n + m - 1))
    X = np.array(data + zeros[:n]).reshape(m, n)
    y = np.array(draw(st.lists(_vector_entries, min_size=m, max_size=m)))
    residual = None
    if draw(st.booleans()):
        residual = np.array(zeros[n:] + [draw(_vector_entries)])
    reference = None
    if draw(st.booleans()):
        reference = np.array(zeros[:n])
        reference[draw(st.integers(0, n - 1))] = draw(_entries)
        y = X @ reference + (np.array(zeros[n:] + [y[-1]]) if residual is None else residual)
    return LinearSystem(DenseMatrix(X), y, Regime.OVER_INCONSISTENT, reference=reference,
                        residual_ref=residual, seed=draw(st.integers(0, 2**64 - 1)))


def _bits(system) -> list:
    arrays = (system.X.data, system.y, system.reference, system.residual_ref)
    return [None if a is None else (a.shape, a.dtype.str, a.tobytes()) for a in arrays]


def _text_parses(monkeypatch) -> list[str]:
    """Record the files load_system parses as text (none when the sidecar hits)."""
    parsed = []
    for name in ("_parse_matrix", "_parse_vector"):
        real = getattr(problems, name)

        def spy(path, text, real=real):
            parsed.append(Path(path).name)
            return real(path, text)

        monkeypatch.setattr(problems, name, spy)
    return parsed


class TestSidecar:
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @_sidecar_settings
    @given(_edge_systems())
    def test_sidecar_and_text_load_the_same_bits(self, system):
        with tempfile.TemporaryDirectory() as tmp:
            save_system(system, tmp)
            cached = load_system(tmp)
            (Path(tmp) / SIDECAR).unlink()
            parsed = load_system(tmp)
        assert _bits(cached) == _bits(parsed) == _bits(system)
        assert cached.seed == parsed.seed == system.seed

    def test_fresh_sidecar_skips_the_text_parse(self, tmp_path, monkeypatch):
        sys_ = gen_gaussian(GenSpec(m=6, n=2, regime=Regime.OVER_INCONSISTENT, seed=3))
        save_system(sys_, tmp_path)
        parsed = _text_parses(monkeypatch)
        assert _bits(load_system(tmp_path)) == _bits(sys_)
        assert parsed == []

    @pytest.mark.parametrize("name", ["X.txt", "y.txt", "reference.txt", "residual.txt"])
    def test_rewritten_text_file_wins(self, tmp_path, monkeypatch, name):
        # move one entry by one ulp: the system stays valid, the sidecar goes stale
        sys_ = gen_gaussian(GenSpec(m=6, n=2, regime=Regime.OVER_INCONSISTENT, seed=3))
        save_system(sys_, tmp_path)
        path = tmp_path / name
        if name == "X.txt":
            values = read_matrix(path).data.copy()
            values[0, 0] = np.nextafter(values[0, 0], np.inf)
            write_matrix(path, values)
        else:
            values = read_vector(path)
            values[0] = np.nextafter(values[0], np.inf)
            write_vector(path, values)
        parsed = _text_parses(monkeypatch)
        back = load_system(tmp_path)
        loaded = {"X.txt": back.X.data, "y.txt": back.y, "reference.txt": back.reference,
                  "residual.txt": back.residual_ref}[name]
        assert loaded.tobytes() == values.tobytes()
        assert name in parsed

    def test_bytes_moved_between_files_miss(self, tmp_path):
        # X.txt's last newline moved to the front of y.txt: same concatenation,
        # but y.txt no longer starts with its header
        sys_ = gen_gaussian(GenSpec(m=5, n=2, regime=Regime.OVER_CONSISTENT, seed=3))
        save_system(sys_, tmp_path)
        x_text = (tmp_path / "X.txt").read_bytes()
        (tmp_path / "X.txt").write_bytes(x_text[:-1])
        (tmp_path / "y.txt").write_bytes(b"\n" + (tmp_path / "y.txt").read_bytes())
        with pytest.raises(ParseError, match=r"y\.txt:1"):
            load_system(tmp_path)

    def test_gen_over_an_inconsistent_system_drops_its_residual(self, tmp_path, monkeypatch):
        argv = ["gen", "--m", "8", "--n", "3", "--seed", "1", "--regime"]
        assert cli.main(argv + ["over-inconsistent", "--out", str(tmp_path / "d")]) == 0
        assert cli.main(argv + ["over-consistent", "--out", str(tmp_path / "d")]) == 0
        assert cli.main(argv + ["over-consistent", "--out", str(tmp_path / "fresh")]) == 0
        assert not (tmp_path / "d" / "residual.txt").exists()
        parsed = _text_parses(monkeypatch)
        back = load_system(tmp_path / "d")
        assert parsed == []  # the second gen's sidecar is a hit
        assert back.regime is Regime.OVER_CONSISTENT
        assert back.residual_ref is None
        assert _bits(back) == _bits(load_system(tmp_path / "fresh"))

    def test_save_without_reference_deletes_the_old_one(self, tmp_path):
        sys_ = gen_gaussian(GenSpec(m=5, n=2, regime=Regime.OVER_CONSISTENT, seed=3))
        save_system(sys_, tmp_path)
        save_system(replace(sys_, reference=None), tmp_path)
        assert not (tmp_path / "reference.txt").exists()
        assert load_system(tmp_path).reference is None

    def test_deleted_reference_is_not_resurrected(self, tmp_path):
        sys_ = gen_gaussian(GenSpec(m=5, n=2, regime=Regime.OVER_CONSISTENT, seed=3))
        save_system(sys_, tmp_path)
        (tmp_path / "reference.txt").unlink()
        back = load_system(tmp_path)
        assert back.reference is None
        assert back.X.data.tobytes() == sys_.X.data.tobytes()

    @pytest.mark.parametrize("keep", [0.0, 0.5, 0.99])
    def test_truncated_sidecar_falls_back(self, tmp_path, monkeypatch, keep):
        sys_ = gen_gaussian(GenSpec(m=5, n=2, regime=Regime.OVER_CONSISTENT, seed=3))
        save_system(sys_, tmp_path)
        blob = (tmp_path / SIDECAR).read_bytes()
        (tmp_path / SIDECAR).write_bytes(blob[: int(keep * len(blob))])
        parsed = _text_parses(monkeypatch)
        assert _bits(load_system(tmp_path)) == _bits(sys_)
        assert parsed == ["X.txt", "y.txt", "reference.txt"]

    def test_sidecar_of_another_system_ignored(self, tmp_path, monkeypatch):
        mine = gen_gaussian(GenSpec(m=5, n=2, regime=Regime.OVER_CONSISTENT, seed=3))
        other = gen_gaussian(GenSpec(m=5, n=2, regime=Regime.OVER_CONSISTENT, seed=4))
        save_system(mine, tmp_path / "mine")
        save_system(other, tmp_path / "other")
        (tmp_path / "mine" / SIDECAR).write_bytes((tmp_path / "other" / SIDECAR).read_bytes())
        parsed = _text_parses(monkeypatch)
        assert _bits(load_system(tmp_path / "mine")) == _bits(mine)
        assert parsed == ["X.txt", "y.txt", "reference.txt"]


def _cached_files(directory) -> list[Path]:
    names = ("X.txt", "y.txt", "reference.txt", "residual.txt")
    return [directory / name for name in names if (directory / name).exists()]


class TestFlatSidecar:
    """arrays.bin is a digest, (m, n) and the arrays' float64 bytes; any other file misses."""

    ALL = ["X.txt", "y.txt", "reference.txt", "residual.txt"]

    @pytest.fixture
    def saved(self, tmp_path):
        sys_ = gen_gaussian(GenSpec(m=6, n=2, regime=Regime.OVER_INCONSISTENT, seed=3))
        save_system(sys_, tmp_path)
        return sys_, tmp_path / SIDECAR

    def _assert_miss(self, sys_, directory, monkeypatch):
        parsed = _text_parses(monkeypatch)
        assert _bits(load_system(directory)) == _bits(sys_)
        assert parsed == self.ALL

    @pytest.mark.parametrize("at", [0, 31, 32, 40, 47, 48, -1],
                             ids=["digest", "digest-end", "m", "n", "n-high", "data", "data-end"])
    def test_flipped_byte_misses(self, saved, monkeypatch, at):
        sys_, path = saved
        blob = bytearray(path.read_bytes())
        blob[at] ^= 0x01
        path.write_bytes(bytes(blob))
        self._assert_miss(sys_, path.parent, monkeypatch)

    def test_swapped_dimensions_miss(self, saved, monkeypatch):
        # n x m holds as many floats as m x n: only the digest tells them apart
        sys_, path = saved
        blob = path.read_bytes()
        path.write_bytes(blob[:32] + blob[40:48] + blob[32:40] + blob[48:])
        self._assert_miss(sys_, path.parent, monkeypatch)

    @pytest.mark.parametrize("edit", [lambda body: body[:-8], lambda body: body + bytes(8)],
                             ids=["one-float-short", "one-float-long"])
    def test_wrong_length_with_a_valid_digest_misses(self, saved, monkeypatch, edit):
        sys_, path = saved
        body = edit(path.read_bytes()[32:])
        path.write_bytes(problems._digest(_cached_files(path.parent), [body]) + body)
        self._assert_miss(sys_, path.parent, monkeypatch)

    @pytest.mark.parametrize("off", [-1, 1], ids=["read-more", "read-less"])
    def test_read_length_unlike_the_file_size_misses(self, saved, monkeypatch, off):
        # a file that grows or shrinks while it is hashed: its size says one length, its
        # reads another
        sys_, path = saved

        def fstat(fd):
            stat = os.fstat(fd)
            return os.stat_result((*stat[:6], stat.st_size + off, *stat[7:10]))

        monkeypatch.setattr(problems, "os", SimpleNamespace(fstat=fstat))
        assert problems._digest(_cached_files(path.parent), []) is None
        self._assert_miss(sys_, path.parent, monkeypatch)

    def test_legacy_npz_is_parsed_and_kept(self, saved, monkeypatch):
        # the archive that older versions wrote, with the digest of these text files
        sys_, path = saved
        path.unlink()
        legacy = path.parent / "arrays.npz"
        digest = np.frombuffer(problems._digest(_cached_files(path.parent), []), np.uint8)
        np.savez(legacy, digest=digest, X=sys_.X.data, y=sys_.y, reference=sys_.reference,
                 residual=sys_.residual_ref)
        self._assert_miss(sys_, path.parent, monkeypatch)
        assert legacy.exists() and not path.exists()

    # the last two write and hash X.txt in several blocks of problems.TEXT_BLOCK bytes
    @pytest.mark.parametrize("spec, blocks", [
        (GenSpec(m=6, n=2, regime=Regime.OVER_INCONSISTENT, seed=3), 0),
        (GenSpec(m=3, n=7, regime=Regime.UNDERDETERMINED, seed=4), 0),
        (TomoSpec(grid_n=3, oversample=2, seed=5), 0),
        (GenSpec(m=600, n=40, regime=Regime.OVER_INCONSISTENT, seed=3), 3),
        (TomoSpec(grid_n=12, oversample=3, seed=5), 2),
    ], ids=["oi", "ud", "tomo", "oi-blocks", "tomo-blocks"])
    def test_layout(self, tmp_path, spec, blocks):
        sys_ = (gen_gaussian if isinstance(spec, GenSpec) else gen_tomography)(spec)
        save_system(sys_, tmp_path, spec)
        assert (tmp_path / "X.txt").stat().st_size > blocks * problems.TEXT_BLOCK
        files = _cached_files(tmp_path)
        texts = {path.name: path.read_bytes() for path in files}
        present = [a for a in (sys_.X.data, sys_.y, sys_.reference, sys_.residual_ref)
                   if a is not None]
        data = b"".join(a.astype("<f8").tobytes() for a in present)
        blob = (tmp_path / SIDECAR).read_bytes()
        assert len(blob) == 48 + 8 * (sys_.m * sys_.n + sys_.m + sys_.n
                                      + (sys_.m if sys_.residual_ref is not None else 0))
        head = sys_.m.to_bytes(8, "little") + sys_.n.to_bytes(8, "little")
        assert blob[32:] == head + data
        assert blob[:32] == hashlib.sha256(
            b"".join(f"{name} {len(text)}\n".encode() + text for name, text in texts.items())
            + blob[32:]).digest()
        arrays = problems._read_sidecar(tmp_path / SIDECAR, files)
        assert list(arrays) == list(texts)
        for array, want in zip(arrays.values(), present):
            assert (array.dtype.str, array.shape) == ("<f8", want.shape)
            assert array.tobytes() == want.tobytes()


def _traced_peak(fn, *args) -> int:
    """The most bytes ``fn(*args)`` holds at once beyond what was held before it (tracemalloc)."""
    tracing = tracemalloc.is_tracing()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        fn(*args)
        return tracemalloc.get_traced_memory()[1] - before
    finally:
        if not tracing:
            tracemalloc.stop()


class TestBlockMemory:
    """Save and load hold the arrays and one block of text, never a whole text file."""

    def test_save_and_load_peaks_do_not_follow_the_text(self, tmp_path):
        spec = GenSpec(m=1000, n=100, regime=Regime.OVER_INCONSISTENT, seed=1)
        sys_ = gen_gaussian(spec)
        save_system(sys_, tmp_path, spec)
        assert (tmp_path / "X.txt").stat().st_size > 1.8 * 2**20  # more than the save bound
        # one block of formatted rows; the sidecar's body is views of the arrays
        assert _traced_peak(save_system, sys_, tmp_path, spec) < 2**20
        # the sidecar's bytes, DenseMatrix's copy of X and its squared entries, and one block
        # (X.txt whole would be 2.5 times X.data.nbytes more)
        bound = 3 * sys_.X.data.nbytes + 2 * problems.TEXT_BLOCK
        assert _traced_peak(load_system, tmp_path) < bound
