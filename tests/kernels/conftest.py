"""Fixtures shared by the kernel test modules."""

from __future__ import annotations

import pytest

from repro.kernels import blas
from repro.kernels.compiled import _ARENA, clear_compiled_memo


@pytest.fixture
def blas_fallback(monkeypatch):
    """Run the test on the ``np.matmul`` + ``np.add`` chunk loop.

    Patches the resolved dgemm away, as on a NumPy whose BLAS exports
    no CBLAS dgemm.  The calling thread's bindings of compiled artifacts
    bound the other path, so they are dropped, with the memo, on both
    sides of the test; other threads bind on their first run.
    """
    monkeypatch.setattr(blas, "_DGEMM", None)
    clear_compiled_memo()
    _ARENA.bindings.clear()
    yield
    clear_compiled_memo()
    _ARENA.bindings.clear()
