"""Fixtures shared by the kernel test modules."""

from __future__ import annotations

import pytest

from repro.kernels import blas
from repro.kernels.compiled import clear_compiled_memo


@pytest.fixture
def blas_fallback(monkeypatch):
    """Run the test on the ``np.matmul`` + ``np.add`` chunk loop.

    Patches the resolved dgemm away, as on a NumPy whose BLAS exports
    no CBLAS dgemm.  Memoized compiled artifacts bound the other path,
    so the memo is cleared on both sides of the test.
    """
    monkeypatch.setattr(blas, "_DGEMM", None)
    clear_compiled_memo()
    yield
    clear_compiled_memo()
