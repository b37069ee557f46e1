"""Fixtures shared by the kernel test modules."""

from __future__ import annotations

import pytest

from repro.kernels import blas
from repro.kernels.compiled import _ARENA


@pytest.fixture
def blas_fallback(monkeypatch):
    """Run the test on the ``np.matmul`` + ``np.add`` chunk loop.

    Patches the resolved dgemm away, as on a NumPy whose BLAS exports
    no CBLAS dgemm.  The calling thread's bindings of compiled artifacts
    bound the other path, so they are dropped on both sides of the test
    and each artifact rebinds on its next run; other threads bind on
    their first run.
    """
    monkeypatch.setattr(blas, "_DGEMM", None)
    _ARENA.bindings.clear()
    yield
    _ARENA.bindings.clear()
