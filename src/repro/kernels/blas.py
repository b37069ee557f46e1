"""The BK main loop, run inside the BLAS NumPy itself loaded.

The compiled engine multiplies a GEMM the way the tile kernel of
Figure 2 does (lines 12-24): the K dimension is walked in ascending
``BK``-deep chunks, and each chunk's product is added to a float64
accumulator that starts at zero.  This module owns that loop, so one
place decides how a chunk is multiplied and accumulated.  A loop adds
to the accumulator and never zeroes it: its owner zeroes it once, then
may run loops over successive K ranges of the operands into it, as the
compiled engine runs one per staged K-slab.

**The BLAS path.**  At import the module looks for a CBLAS ``dgemm`` in
the BLAS library NumPy loaded: it scans the shared objects mapped into
this process (``/proc/self/maps``) whose file name contains ``blas``,
for the 64-bit-integer entry points in :data:`_CANDIDATES`.  NumPy's
own wheels bundle scipy-openblas64, which exports
``scipy_cblas_dgemm64_`` -- the routine ``np.matmul`` itself calls.
Each chunk is then row-major ``acc += A[:, k0:k_hi] @ B[k0:k_hi, :]``
calls with alpha = beta = 1, one per row panel (below), so the kernel
adds its register sum to the accumulator in the same pass that
computes it.  :class:`ChunkLoop` builds the ctypes arguments of every
call once, so a repeated run (a compiled artifact's) only issues the
calls.  ctypes releases the GIL for the call, as ``np.matmul`` does.

**The fallback.**  When NumPy's BLAS exports none of those entry points
(an Accelerate build, an LP64-only CBLAS, a platform without
``/proc``), each chunk is ``np.matmul`` calls, one per row panel, into
an ``m x n`` temporary plus one ``np.add`` into the accumulator.  The
caller lends the temporary (a compiled artifact lends a buffer of its
arena).  :data:`DGEMM_SYMBOL` reports the resolved entry point, or
``None`` on the fallback; the choice is made once, at import.

**Bit-exactness.**  Both paths give the reference walk's bits:

* a dgemm kernel forms each output element's chunk sum in registers as
  an ascending-``k`` FMA sequence over that element's row and column,
  so a chunk product equals the reference walk's per-tile (zero-padded)
  products element for element -- when both calls run the same kernel;
* with beta = 1 the kernel stores ``fl(acc + sum)``, and alpha = 1
  multiplies the sum exactly, so ``acc += A @ B`` rounds exactly like
  ``tmp = A @ B; acc += tmp``.

**Row panels.**  Which kernel runs depends on the call's size.  On
scipy-openblas 0.3.31 (SkylakeX kernels), a float64 call of more than
:data:`SMALL_CALL` = 10**6 multiply-adds leaves the small-matrix kernel
that the reference walk's tile-sized calls run on, and can round the
elements of its last ``n mod 8`` columns differently.  An
``(m x 8) @ (8 x 381)`` product matched its zero-padded 64 x 64 tile
products for every m from 2 to 328 (at most 999,744 multiply-adds), and
differed from them in its last five columns, and only there, for every
m from 329 (1,002,792) to 419; full-width chunk calls made 500-2,226
elements of float64 outputs such as (331, 381, 73) and (1000, 300, 50)
differ from the walk.  So each chunk call is split into the near-equal
row panels of :func:`row_panels`, each within :data:`SMALL_CALL`; a
panel's elements see the same FMA sequence as in the full call, and
every element still adds its chunks in ascending order.  The bound is
measured on that kernel set only: ``tests/kernels/test_blas.py`` runs
its reproducer as a plain test where OpenBLAS reports ``SkylakeX``,
and as a non-strict ``xfail`` elsewhere (``docs/performance.md``).

``np.matmul`` does *not* always reach dgemm: it routes a one-row or
one-column product to gemv, which rounds differently from the gemm the
reference walk runs on its padded tiles (``docs/performance.md``).  A
direct dgemm call has no such routing, which is why the fallback is
exact only for GEMMs with at least two rows and two columns.
"""

from __future__ import annotations

import ctypes
from typing import Callable, Optional, Sequence

import numpy as np

__all__ = [
    "DGEMM_SYMBOL",
    "SMALL_CALL",
    "ChunkLoop",
    "chunk_ranges",
    "loop_calls",
    "row_panels",
]

#: CBLAS dgemm entry points with 64-bit integer arguments, in lookup
#: order: the scipy-openblas64 build NumPy's wheels bundle, then a plain
#: ILP64 OpenBLAS.
_CANDIDATES = ("scipy_cblas_dgemm64_", "cblas_dgemm64_")

# The arguments every call shares, built once (ctypes passes them as is).
_ROW_MAJOR = ctypes.c_int(101)
_NO_TRANS = ctypes.c_int(111)
_ONE = ctypes.c_double(1.0)

#: Multiply-adds of the largest call a :class:`ChunkLoop` makes.
#: OpenBLAS's SkylakeX dgemm runs calls up to this size on its
#: small-matrix kernel, as it runs the reference walk's tile-sized
#: calls; larger calls can round an element's sum differently (see the
#: module docstring).
SMALL_CALL = 10**6


def _mapped_blas_libraries() -> list[str]:
    """Paths of the mapped shared objects whose file name names BLAS."""
    try:
        with open("/proc/self/maps") as maps:
            fields = [line.split(maxsplit=5) for line in maps]
    except OSError:
        return []
    paths = {f[5].strip() for f in fields if len(f) == 6 and f[5].startswith("/")}
    return sorted(p for p in paths if "blas" in p.rsplit("/", 1)[-1].lower())


def _resolve() -> tuple[Optional[Callable[..., None]], Optional[str]]:
    """The first candidate entry point any mapped BLAS library exports."""
    libraries = _mapped_blas_libraries()
    for symbol in _CANDIDATES:
        for path in libraries:
            try:
                fn = getattr(ctypes.CDLL(path), symbol)
            except (OSError, AttributeError):
                continue
            enum, i64, f64, ptr = ctypes.c_int, ctypes.c_int64, ctypes.c_double, ctypes.c_void_p
            # order, transa, transb, m, n, k, alpha, A, lda, B, ldb, beta, C, ldc
            fn.argtypes = (
                enum, enum, enum, i64, i64, i64, f64, ptr, i64, ptr, i64, f64, ptr, i64
            )
            fn.restype = None
            return fn, symbol
    return None, None


#: ``_DGEMM`` is the resolved ctypes function and ``DGEMM_SYMBOL`` its
#: name; both are ``None`` when the chunk loops fall back to NumPy.
_DGEMM, DGEMM_SYMBOL = _resolve()


def chunk_ranges(k: int, bk: int) -> tuple[tuple[int, int], ...]:
    """The ascending ``(k0, k_hi)`` ranges of a depth-``k`` reduction's BK chunks."""
    starts = range(0, k, bk)
    return tuple(zip(starts, [*starts[1:], k]))


def row_panels(m: int, n: int, depth: int) -> tuple[tuple[int, int], ...]:
    """The ``(r0, r1)`` row ranges one ``depth``-deep chunk call is split into.

    Each panel has at most ``max(1, SMALL_CALL // (depth * n))`` rows,
    so an ``(r1 - r0) x n x depth`` call stays within
    :data:`SMALL_CALL` multiply-adds.  The panels are near-equal rather
    than full panels plus a remainder, so a panel of one row -- which
    ``np.matmul`` would send to gemv -- arises only for ``m = 1`` or
    when three rows would exceed the limit.
    """
    rows = max(1, SMALL_CALL // (depth * n))
    count = -(-m // rows)
    bounds = [m * i // count for i in range(count + 1)]
    return tuple(zip(bounds[:-1], bounds[1:]))


def _loop_panels(m: int, n: int, chunks: Sequence[tuple[int, int]]):
    """The row panels of an ``m x n`` loop: each call fits its deepest chunk."""
    deepest = max((k_hi - k0 for k0, k_hi in chunks), default=1)
    return row_panels(m, n, deepest)


def loop_calls(m: int, n: int, chunks: Sequence[tuple[int, int]]) -> int:
    """Calls one run of an ``m x n`` :class:`ChunkLoop` over ``chunks`` makes.

    One per chunk and row panel, on the dgemm path and the fallback alike.
    """
    return len(chunks) * len(_loop_panels(m, n, chunks))


class ChunkLoop:
    """One accumulator's BK main loop over fixed buffers, bound once.

    :meth:`run` adds ``a[:, k0:k_hi] @ b[k0:k_hi, :]`` to ``acc``
    (``m x n``) for each ``(k0, k_hi)`` of ``chunks``, in the given
    order; it does not zero ``acc`` first, so its owner zeroes it once
    and may then run loops over successive K ranges into it.  ``a`` is
    the ``m x k`` and ``b`` the ``k x n`` operand; all three must be
    C-contiguous 2-D float64 arrays, and ``acc`` writeable.  Each chunk
    product is computed in the row panels of :func:`row_panels`, which
    leaves every element's sum unchanged.  On the ``np.matmul``
    fallback each chunk product lands in ``scratch`` before it is
    added: a writeable C-contiguous float64 array of ``acc``'s shape,
    whose contents :meth:`run` overwrites (the dgemm path leaves it
    untouched).  The checks run here, once, and raise ``ValueError``.
    The loop keeps references to the arrays its call arguments point
    into, so they live as long as it does.  A loop is not thread-safe:
    its owner serializes :meth:`run`.
    """

    __slots__ = ("chunks", "_arrays", "_panels", "_dgemm", "_calls")

    def __init__(
        self,
        acc: np.ndarray,
        a: np.ndarray,
        b: np.ndarray,
        chunks: Sequence[tuple[int, int]],
        scratch: np.ndarray,
    ) -> None:
        buffers = (("acc", acc), ("a", a), ("b", b), ("scratch", scratch))
        for name, arr in buffers:
            if not (
                isinstance(arr, np.ndarray)
                and arr.dtype == np.float64
                and arr.ndim == 2
                and arr.flags.c_contiguous
            ):
                raise ValueError(f"{name} must be a C-contiguous 2-D float64 array")
        (m, n), k = acc.shape, a.shape[1]
        if a.shape != (m, k) or b.shape != (k, n):
            raise ValueError(
                f"shapes do not chain: acc {acc.shape}, a {a.shape}, b {b.shape}"
            )
        if scratch.shape != (m, n):
            raise ValueError(f"scratch {scratch.shape} is not acc's shape {acc.shape}")
        if not (acc.flags.writeable and scratch.flags.writeable):
            raise ValueError("acc and scratch must be writeable")
        self.chunks = tuple((int(k0), int(k_hi)) for k0, k_hi in chunks)
        for k0, k_hi in self.chunks:
            if not 0 <= k0 < k_hi <= k:
                raise ValueError(f"chunk ({k0}, {k_hi}) outside 0..{k}")
        self._panels = _loop_panels(m, n, self.chunks)
        self._dgemm = _DGEMM
        if self._dgemm is None:
            self._arrays = (acc, a, b, scratch)
            self._calls = ()
            return
        self._arrays = (acc, a, b, None)
        cols, ld_a = ctypes.c_int64(n), ctypes.c_int64(k)
        rows = {h: ctypes.c_int64(h) for h in {r1 - r0 for r0, r1 in self._panels}}
        depth = {w: ctypes.c_int64(w) for w in {k_hi - k0 for k0, k_hi in self.chunks}}
        a_ptr, b_ptr, c_ptr = a.ctypes.data, b.ctypes.data, acc.ctypes.data
        item = a.itemsize
        # Row-major C[r0:r1, :] += A[r0:r1, k0:k_hi] @ B[k0:k_hi, :]:
        # the slices start r0 rows and k0 elements (A), k0 rows (B) and
        # r0 rows (C) in, with the full rows of a, b and acc as leading
        # dimensions.  The slice addresses are plain ints, which ctypes
        # converts as fast as prebuilt pointers.  A panel takes all its
        # chunks before the next panel starts, so its accumulator rows
        # stay in cache; each element still adds its chunks ascending.
        self._calls = tuple(
            (
                _ROW_MAJOR, _NO_TRANS, _NO_TRANS, rows[r1 - r0], cols, depth[k_hi - k0],
                _ONE, a_ptr + item * (r0 * k + k0), ld_a, b_ptr + item * k0 * n, cols,
                _ONE, c_ptr + item * r0 * n, cols,
            )
            for r0, r1 in self._panels
            for k0, k_hi in self.chunks
        )

    def run(self) -> None:
        """Add the chunk products to the accumulator, in chunk order."""
        dgemm = self._dgemm
        if dgemm is not None:
            for args in self._calls:
                dgemm(*args)
            return
        acc, a, b, tmp = self._arrays
        for k0, k_hi in self.chunks:
            for r0, r1 in self._panels:
                np.matmul(a[r0:r1, k0:k_hi], b[k0:k_hi, :], out=tmp[r0:r1])
            np.add(acc, tmp, out=acc)
