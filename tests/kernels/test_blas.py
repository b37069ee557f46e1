"""Tests for the BK main loop helper of the compiled engine.

``repro.kernels.blas`` runs each chunk as dgemm calls (alpha = beta
= 1), one per row panel, when NumPy's BLAS exports a CBLAS dgemm, and
as ``np.matmul`` plus ``np.add`` otherwise, adding each product to an
accumulator it never zeroes.  Both must give the bits of the parent
loop, and the compiled engine must match the reference walk
bit for bit -- including on one-row and one-column GEMMs, which
``np.matmul`` sends to gemv, and on GEMMs whose full-width chunk calls
would leave OpenBLAS's small-matrix kernel.
"""

from __future__ import annotations

import ctypes

import numpy as np
import pytest

from repro.core.problem import Gemm, GemmBatch
from repro.kernels import blas
from repro.kernels.blas import ChunkLoop, chunk_ranges, row_panels
from repro.kernels.compiled import execute_compiled
from repro.kernels.persistent import execute_schedule

from .test_compiled import make_schedule


def numpy_loop(a: np.ndarray, b: np.ndarray, bk: int, start=None) -> np.ndarray:
    """The chunk loop every engine ran before the helper existed.

    Adds the chunk products, in order, to a copy of ``start`` (zeros by
    default).
    """
    m, k = a.shape
    acc = np.zeros((m, b.shape[1])) if start is None else start.copy()
    tmp = np.empty_like(acc)
    for k0 in range(0, k, bk):
        np.matmul(a[:, k0 : k0 + bk], b[k0 : k0 + bk, :], out=tmp)
        np.add(acc, tmp, out=acc)
    return acc


@pytest.fixture(params=["dgemm", "fallback"])
def path(request):
    """Each helper test runs once per chunk-loop path."""
    if request.param == "fallback":
        request.getfixturevalue("blas_fallback")
    elif blas.DGEMM_SYMBOL is None:
        pytest.skip("NumPy's BLAS exports no CBLAS dgemm")
    return request.param


class TestResolution:
    def test_symbol_reports_the_resolved_entry_point(self):
        if blas.DGEMM_SYMBOL is None:
            assert blas._DGEMM is None
        else:
            assert blas.DGEMM_SYMBOL in blas._CANDIDATES
            assert blas._DGEMM.__name__ == blas.DGEMM_SYMBOL

    def test_loop_takes_the_path_resolved_when_bound(self, path):
        """The dgemm path leaves the scratch untouched; the fallback fills it."""
        a, b, acc = np.ones((3, 4)), np.ones((4, 5)), np.zeros((3, 5))
        scratch = np.full((3, 5), np.nan)
        ChunkLoop(acc, a, b, chunk_ranges(4, 2), scratch).run()
        assert np.array_equal(acc, np.full((3, 5), 4.0))
        on_blas = path == "dgemm"
        assert np.isnan(scratch).all() == on_blas


class TestChunkLoop:
    def test_chunk_ranges(self):
        assert chunk_ranges(20, 8) == ((0, 8), (8, 16), (16, 20))
        assert chunk_ranges(8, 8) == ((0, 8),)

    def test_matches_the_numpy_loop_bitwise(self, path, rng):
        """Random shapes with at least two rows and columns, signed zeros.

        The loop adds to the accumulator it is given: a zeroed one on
        the trials with signed zeros, random values on the others.
        """
        for trial in range(60):
            m, n = rng.integers(2, 90, size=2)
            k = int(rng.integers(1, 70))
            a = rng.standard_normal((m, k))
            b = rng.standard_normal((k, n))
            if trial % 2:
                a[rng.random(a.shape) < 0.3] = -0.0
            start = np.zeros((m, n)) if trial % 2 else rng.standard_normal((m, n))
            acc = start.copy()
            scratch = np.full((m, n), np.nan)
            ChunkLoop(acc, a, b, chunk_ranges(k, 8), scratch).run()
            want = numpy_loop(a, b, 8, start)
            assert np.array_equal(acc, want), (m, n, k)
            assert np.array_equal(np.signbit(acc), np.signbit(want)), (m, n, k)

    def test_row_panels_split_calls_without_moving_a_bit(self, path, rng, monkeypatch):
        """Calls split into row panels add every element's chunks alike.

        The lowered limit splits most of these calls, into panels of at
        least two rows (three fit for every n < 90): the fallback's
        ``np.matmul`` would send a one-row panel to gemv.
        """
        monkeypatch.setattr(blas, "SMALL_CALL", 8 * 90 * 3)
        for trial in range(20):
            m, n = rng.integers(2, 90, size=2)
            k = int(rng.integers(1, 70))
            a = rng.standard_normal((m, k))
            b = rng.standard_normal((k, n))
            scratch = np.full((m, n), np.nan)
            start = rng.standard_normal((m, n))
            acc = start.copy()
            ChunkLoop(acc, a, b, chunk_ranges(k, 8), scratch).run()
            assert np.array_equal(acc, numpy_loop(a, b, 8, start)), (m, n, k)

    def test_loops_over_successive_k_ranges_add_like_one_loop(self, path, rng):
        """Loops over consecutive K ranges of copies, into one accumulator.

        This is how the compiled engine runs a GEMM one staged K-slab at
        a time: with range edges on chunk edges, every element adds the
        same chunk products in the same order as one loop over all of K.
        """
        for m, n, k, edge in [(9, 13, 300, 128), (40, 3, 129, 128), (5, 70, 24, 16)]:
            a = rng.standard_normal((m, k))
            b = rng.standard_normal((k, n))
            acc = np.zeros((m, n))
            scratch = np.empty((m, n))
            for k0, k_hi in chunk_ranges(k, edge):
                a_part = np.ascontiguousarray(a[:, k0:k_hi])
                b_part = np.ascontiguousarray(b[k0:k_hi])
                chunks = chunk_ranges(k_hi - k0, 8)
                ChunkLoop(acc, a_part, b_part, chunks, scratch).run()
            assert np.array_equal(acc, numpy_loop(a, b, 8)), (m, n, k)

    @pytest.mark.parametrize(
        "m,n,depth", [(331, 381, 8), (1000, 300, 8), (7, 5, 3), (3, 10**6, 8)]
    )
    def test_row_panels_tile_the_rows_within_the_call_limit(self, m, n, depth):
        panels = row_panels(m, n, depth)
        assert panels[0][0] == 0 and panels[-1][1] == m
        assert all(r1 == nxt for (_, r1), (nxt, _) in zip(panels, panels[1:]))
        sizes = [r1 - r0 for r0, r1 in panels]
        rows = max(1, blas.SMALL_CALL // (depth * n))
        assert max(sizes) <= rows and max(sizes) - min(sizes) <= 1
        assert len(panels) == -(-m // rows)

    def test_rerun_gives_the_same_bits(self, path, rng):
        a, b = rng.standard_normal((17, 40)), rng.standard_normal((40, 23))
        acc = np.zeros((17, 23))
        loop = ChunkLoop(acc, a, b, chunk_ranges(40, 8), np.empty((17, 23)))
        loop.run()
        first = acc.copy()
        assert np.array_equal(first, numpy_loop(a, b, 8))
        loop.run()  # a second run adds to what the first left
        assert np.array_equal(acc, numpy_loop(a, b, 8, first))
        a[:] = rng.standard_normal(a.shape)  # the loop reads the live buffers
        acc.fill(0.0)
        loop.run()
        assert np.array_equal(acc, numpy_loop(a, b, 8))
        assert not np.array_equal(acc, first)

    @pytest.mark.parametrize(
        "acc,a,b,message",
        [
            (np.empty((3, 5), np.float32), np.ones((3, 4)), np.ones((4, 5)), "acc must"),
            (np.empty((3, 5)), np.ones((4, 3)).T, np.ones((4, 5)), "a must"),
            (np.empty((3, 5)), np.ones((3, 4)), np.ones(20), "b must"),
            (np.empty((3, 5)), np.ones((3, 4)), np.ones((3, 5)), "do not chain"),
            (np.empty((3, 6)), np.ones((3, 4)), np.ones((4, 5)), "do not chain"),
        ],
    )
    def test_rejects_buffers_the_call_cannot_address(self, acc, a, b, message):
        with pytest.raises(ValueError, match=message):
            ChunkLoop(acc, a, b, chunk_ranges(4, 2), np.empty(acc.shape))

    @pytest.mark.parametrize(
        "scratch,message",
        [
            (np.empty((3, 5), np.float32), "scratch must"),
            (np.empty((5, 3)).T, "scratch must"),
            (np.empty((3, 4)), "not acc's shape"),
        ],
    )
    def test_rejects_scratch_the_loop_cannot_use(self, scratch, message):
        with pytest.raises(ValueError, match=message):
            ChunkLoop(
                np.empty((3, 5)), np.ones((3, 4)), np.ones((4, 5)),
                chunk_ranges(4, 2), scratch,
            )

    def test_rejects_read_only_accumulator(self):
        acc = np.empty((3, 5))
        acc.flags.writeable = False
        with pytest.raises(ValueError, match="writeable"):
            ChunkLoop(
                acc, np.ones((3, 4)), np.ones((4, 5)),
                chunk_ranges(4, 2), np.empty((3, 5)),
            )

    def test_rejects_read_only_scratch(self):
        scratch = np.empty((3, 5))
        scratch.flags.writeable = False
        with pytest.raises(ValueError, match="writeable"):
            ChunkLoop(
                np.empty((3, 5)), np.ones((3, 4)), np.ones((4, 5)),
                chunk_ranges(4, 2), scratch,
            )

    @pytest.mark.parametrize("chunk", [(-1, 2), (2, 2), (3, 5), (0, 5)])
    def test_rejects_chunks_outside_the_reduction(self, chunk):
        with pytest.raises(ValueError, match="outside"):
            ChunkLoop(
                np.empty((3, 5)), np.ones((3, 4)), np.ones((4, 5)),
                [chunk], np.empty((3, 5)),
            )


@pytest.mark.skipif(
    blas.DGEMM_SYMBOL is None,
    reason="the np.matmul fallback sends one-row products to gemv",
)
class TestOneRowOneColumn:
    """Float64 GEMMs with one row or one column, on the compiled engine.

    ``np.matmul`` computes a (1 x w) @ (w x n) or (m x w) @ (w x 1)
    chunk product with gemv, which rounds differently from the gemm the
    reference walk runs on its zero-padded tiles; the fp32 cast hides
    it, float64 outputs do not.
    """

    SHAPES = [(1, 200, 64), (200, 1, 64), (1, 81, 298), (2, 1, 302)]
    ENGINES = {"compiled": execute_compiled}

    @pytest.mark.parametrize("engine", ENGINES)
    @pytest.mark.parametrize("shape", SHAPES)
    def test_bit_identical_to_reference(self, rng, shape, engine):
        batch = GemmBatch([Gemm(*shape)])
        ops = batch.random_operands(rng, dtype=np.float64)
        sched = make_schedule(batch)
        want = execute_schedule(sched, batch, ops)[0]
        got = self.ENGINES[engine](sched, batch, ops)[0]
        assert got.dtype == np.float64
        assert np.array_equal(got, want), (
            f"max |delta| = {np.max(np.abs(got - want))}"
        )


def blas_core() -> str | None:
    """The kernel set OpenBLAS chose for this CPU (``None`` if unknown)."""
    for path in blas._mapped_blas_libraries():
        try:
            fn = ctypes.CDLL(path).scipy_openblas_get_corename64_
        except (OSError, AttributeError):
            continue
        fn.restype = ctypes.c_char_p
        return fn().decode()
    return None


#: Where the small-call bound was measured: the dgemm path on
#: OpenBLAS's SkylakeX kernels.  Elsewhere the reproducer runs as a
#: non-strict xfail, since the bound has not been measured there.
MEASURED = blas.DGEMM_SYMBOL is not None and blas_core() == "SkylakeX"


@pytest.mark.xfail(
    not MEASURED,
    strict=False,
    reason=(
        "the small-call bound of repro.kernels.blas was measured on "
        "scipy-openblas 0.3.31's SkylakeX dgemm only; see "
        "docs/performance.md, Bit-exactness"
    ),
)
@pytest.mark.parametrize("engine", TestOneRowOneColumn.ENGINES)
@pytest.mark.parametrize(
    "shape",
    [(331, 381, 73), (511, 509, 24), (257, 500, 40), (420, 381, 64), (1000, 300, 50)],
)
def test_large_float64_chunk_calls_match_reference(rng, shape, engine):
    """Float64 GEMMs whose full-width chunk calls exceed 10**6 multiply-adds.

    An ``m x n x 8`` chunk call of more than 10**6 multiply-adds would
    leave OpenBLAS's small-matrix kernel, which the reference walk's
    tile-sized calls run on, and round some elements of its last
    ``n mod 8`` columns differently; split into row panels, every call
    stays on it.  Before the split, 500-2,226 elements of each of these
    outputs differed from the walk.
    """
    batch = GemmBatch([Gemm(*shape)])
    ops = batch.random_operands(rng, dtype=np.float64)
    sched = make_schedule(batch)
    want = execute_schedule(sched, batch, ops)[0]
    got = TestOneRowOneColumn.ENGINES[engine](sched, batch, ops)[0]
    assert np.array_equal(got, want), f"{np.count_nonzero(got != want)} elements differ"
