"""Strided batched GEMM: the ``cublasGemmStridedBatched`` layout.

Uniform batches in deep-learning frameworks rarely arrive as Python
lists of matrices; they are 3-D tensors with a fixed stride between
consecutive problem instances.  This module adapts that layout to the
framework's executors: split the tensors into per-GEMM views (no
copies), run any schedule, and reassemble the 3-D output.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.core.problem import GemmBatch
from repro.core.schedule import BatchSchedule
from repro.kernels.engine import get_engine
from repro.kernels.policy import ExecutionPolicy
from repro.telemetry import get_tracer


def split_strided(
    batch: GemmBatch,
    a: np.ndarray,
    b: np.ndarray,
    c: np.ndarray,
) -> list[tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """Views of a strided-batch operand triple, one per GEMM.

    ``a``/``b``/``c`` have shapes ``(B, m, k)``, ``(B, k, n)``,
    ``(B, m, n)`` (or the transposed stored layouts when the batch's
    GEMMs carry ``trans_a``/``trans_b``); the batch must be uniform.
    Returned tuples are views -- zero copy.
    """
    if not batch.is_uniform:
        raise ValueError(
            "strided batched GEMM requires a uniform batch "
            "(use per-GEMM operand lists for variable sizes)"
        )
    g = batch[0]
    n_batch = len(batch)
    expected = {
        "A": (n_batch, *g.a_shape),
        "B": (n_batch, *g.b_shape),
        "C": (n_batch, g.m, g.n),
    }
    for name, (arr, shape) in zip(expected, ((a, expected["A"]), (b, expected["B"]), (c, expected["C"]))):
        if arr.shape != shape:
            raise ValueError(f"{name} has shape {arr.shape}, expected {shape}")
    return [(a[i], b[i], c[i]) for i in range(n_batch)]


def execute_schedule_strided(
    schedule: BatchSchedule,
    batch: GemmBatch,
    a: np.ndarray,
    b: np.ndarray,
    c: np.ndarray,
    *,
    policy: Optional[ExecutionPolicy] = None,
) -> np.ndarray:
    """Run a schedule on strided-batch operands; returns ``(B, m, n)``.

    ``policy`` -- an :class:`~repro.kernels.ExecutionPolicy` -- selects
    the executor through the shared engine registry; the default keeps
    this adapter on the ``reference`` per-slot walk (its historical
    behaviour).  Both engines are bit-identical, so the choice only
    changes speed.  Only ``engine`` applies: a policy that sets any
    other field is a ``ValueError``, not a setting silently dropped.
    """
    pol = (
        ExecutionPolicy(engine="reference")
        if policy is None
        else ExecutionPolicy.of(policy)
    )
    if pol != ExecutionPolicy(engine=pol.engine):
        raise ValueError("execute_schedule_strided applies only a policy's engine")
    run = get_engine(pol.engine)
    with get_tracer().span("execute.strided", gemms=len(batch), engine=pol.engine):
        operands = split_strided(batch, a, b, c)
        outputs = run(schedule, batch, operands)
        return np.stack(outputs)


def random_strided_operands(
    batch: GemmBatch,
    rng: np.random.Generator | None = None,
    dtype: type = np.float32,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Random ``(A, B, C)`` tensors in the strided layout."""
    if not batch.is_uniform:
        raise ValueError("strided operands require a uniform batch")
    rng = rng if rng is not None else np.random.default_rng()
    g = batch[0]
    n_batch = len(batch)
    a = rng.standard_normal((n_batch, *g.a_shape)).astype(dtype)
    b = rng.standard_normal((n_batch, *g.b_shape)).astype(dtype)
    c = rng.standard_normal((n_batch, g.m, g.n)).astype(dtype)
    return a, b, c
