"""GEMM problem descriptions.

The framework operates on batches of independent GEMMs
``C_i = alpha_i * A_i @ B_i + beta_i * C_i`` whose sizes
``M_i x N_i x K_i`` may all differ (the *vbatch* scenario the paper
targets).  :class:`Gemm` describes one problem, :class:`GemmBatch` a
group to be fused into a single kernel, and :class:`Tile` one tile of
one GEMM's C matrix after the tiling phase.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Iterator, Sequence

import numpy as np


@dataclass(frozen=True)
class Gemm:
    """One GEMM problem: ``C = alpha * op(A) @ op(B) + beta * C``.

    ``trans_a`` / ``trans_b`` give the standard BLAS transpose
    semantics: when set, the stored operand has the transposed layout
    (A is ``k x m``, B is ``n x k``) and ``op`` transposes it back.
    Only the shape and the scalars live here; operand data is supplied
    separately to the functional executors (see
    :mod:`repro.kernels.persistent`), matching how the CUDA interface
    passes device-pointer arrays next to the size arrays.

    The performance model prices transposed and non-transposed loads
    identically (real kernels pay different coalescing costs; that
    micro-architectural detail is below this model's resolution).
    """

    m: int
    n: int
    k: int
    alpha: float = 1.0
    beta: float = 0.0
    trans_a: bool = False
    trans_b: bool = False

    def __post_init__(self) -> None:
        for dim, value in (("m", self.m), ("n", self.n), ("k", self.k)):
            if not isinstance(value, (int, np.integer)):
                raise TypeError(f"{dim} must be an int, got {type(value).__name__}")
            if value <= 0:
                raise ValueError(f"{dim} must be positive, got {value}")

    @property
    def flops(self) -> int:
        """Floating-point operations (multiply + add counted separately)."""
        return 2 * self.m * self.n * self.k

    @property
    def shape(self) -> tuple[int, int, int]:
        """``(m, n, k)``."""
        return (self.m, self.n, self.k)

    @property
    def a_shape(self) -> tuple[int, int]:
        """Stored shape of the A operand (honours ``trans_a``)."""
        return (self.k, self.m) if self.trans_a else (self.m, self.k)

    @property
    def b_shape(self) -> tuple[int, int]:
        """Stored shape of the B operand (honours ``trans_b``)."""
        return (self.n, self.k) if self.trans_b else (self.k, self.n)

    def op_a(self, a: np.ndarray) -> np.ndarray:
        """``op(A)``: the ``m x k`` view of a stored A operand."""
        return a.T if self.trans_a else a

    def op_b(self, b: np.ndarray) -> np.ndarray:
        """``op(B)``: the ``k x n`` view of a stored B operand."""
        return b.T if self.trans_b else b

    def random_operands(
        self, rng: np.random.Generator | None = None, dtype: type = np.float32
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Draw random ``(A, B, C)`` operands for this problem."""
        rng = rng if rng is not None else np.random.default_rng()
        a = rng.standard_normal(self.a_shape).astype(dtype)
        b = rng.standard_normal(self.b_shape).astype(dtype)
        c = rng.standard_normal((self.m, self.n)).astype(dtype)
        return a, b, c

    def __str__(self) -> str:
        ops = ("T" if self.trans_a else "N") + ("T" if self.trans_b else "N")
        suffix = "" if ops == "NN" else f",{ops}"
        return f"Gemm({self.m}x{self.n}x{self.k}{suffix})"


class GemmBatch:
    """An ordered batch of independent GEMMs fused into one kernel.

    Supports iteration, indexing, and the aggregate statistics the
    tiling/batching algorithms and the random-forest features need.
    """

    def __init__(self, gemms: Iterable[Gemm]):
        self._gemms: tuple[Gemm, ...] = tuple(gemms)
        if not self._gemms:
            raise ValueError("a GemmBatch needs at least one Gemm")
        for g in self._gemms:
            if not isinstance(g, Gemm):
                raise TypeError(f"expected Gemm, got {type(g).__name__}")

    @classmethod
    def from_shapes(
        cls, shapes: Iterable[tuple[int, int, int]], alpha: float = 1.0, beta: float = 0.0
    ) -> "GemmBatch":
        """Build a batch from ``(m, n, k)`` tuples."""
        return cls(Gemm(m, n, k, alpha=alpha, beta=beta) for m, n, k in shapes)

    @classmethod
    def uniform(cls, m: int, n: int, k: int, batch_size: int) -> "GemmBatch":
        """A same-size batch (the ``cublasSgemmBatched`` scenario)."""
        if batch_size <= 0:
            raise ValueError(f"batch_size must be positive, got {batch_size}")
        return cls(Gemm(m, n, k) for _ in range(batch_size))

    def __len__(self) -> int:
        return len(self._gemms)

    def __iter__(self) -> Iterator[Gemm]:
        return iter(self._gemms)

    def __getitem__(self, index: int) -> Gemm:
        return self._gemms[index]

    @property
    def gemms(self) -> tuple[Gemm, ...]:
        return self._gemms

    @property
    def is_uniform(self) -> bool:
        """True when every GEMM has the same (m, n, k)."""
        first = self._gemms[0].shape
        return all(g.shape == first for g in self._gemms)

    @property
    def total_flops(self) -> int:
        return sum(g.flops for g in self._gemms)

    @property
    def mean_m(self) -> float:
        return float(np.mean([g.m for g in self._gemms]))

    @property
    def mean_n(self) -> float:
        return float(np.mean([g.n for g in self._gemms]))

    @property
    def mean_k(self) -> float:
        return float(np.mean([g.k for g in self._gemms]))

    def features(self) -> np.ndarray:
        """The random-forest prediction features of Section 5:
        average M, N, K and the batch size B."""
        return np.array([self.mean_m, self.mean_n, self.mean_k, float(len(self))])

    @property
    def compulsory_ab_bytes(self) -> int:
        """Unique A/B operand footprint in bytes (FP32).

        Every tiling must read each A and B at least once from DRAM;
        this is the floor the L2 model compares tile traffic against.
        """
        return sum((g.m * g.k + g.k * g.n) * 4 for g in self._gemms)

    def random_operands(
        self, rng: np.random.Generator | None = None, dtype: type = np.float32
    ) -> list[tuple[np.ndarray, np.ndarray, np.ndarray]]:
        """Random operands for every GEMM in the batch."""
        rng = rng if rng is not None else np.random.default_rng()
        return [g.random_operands(rng, dtype) for g in self._gemms]

    def __repr__(self) -> str:
        if len(self._gemms) <= 4:
            inner = ", ".join(str(g) for g in self._gemms)
        else:
            inner = f"{self._gemms[0]}, ..., {self._gemms[-1]} ({len(self._gemms)} GEMMs)"
        return f"GemmBatch[{inner}]"


def batch_signature(batch: GemmBatch) -> tuple:
    """A hashable identity of a batch's planning-relevant content.

    Two batches with the same signature receive identical plans under
    identical options (planning never looks at operand values).
    alpha/beta are excluded: they only affect the epilogue arithmetic,
    not the schedule.
    """
    return tuple((g.m, g.n, g.k, g.trans_a, g.trans_b) for g in batch)


@dataclass(frozen=True)
class Tile:
    """One tile of one GEMM's C matrix, produced by the tiling engine.

    ``gemm_index`` names the source GEMM within the batch; ``y`` / ``x``
    are the tile's coordinates in units of tiles (the ``Y_Coordinate`` /
    ``X_Coordinate`` entries of the programming interface);
    ``strategy_index`` indexes the 12-entry batched strategy table
    (paper Section 6 uses 0-11); ``k`` is the tile's reduction depth,
    i.e. the K of its GEMM -- the quantity the batching engine balances.
    """

    gemm_index: int
    y: int
    x: int
    strategy_index: int
    k: int

    def __post_init__(self) -> None:
        if self.gemm_index < 0:
            raise ValueError("gemm_index must be non-negative")
        if self.y < 0 or self.x < 0:
            raise ValueError("tile coordinates must be non-negative")
        if self.k <= 0:
            raise ValueError("tile reduction depth k must be positive")


def validate_operands(
    batch: GemmBatch,
    operands: Sequence[tuple[np.ndarray, np.ndarray, np.ndarray]],
) -> None:
    """Check that operand shapes match the batch; raise ValueError otherwise.

    Shared by all executors so shape errors surface before any compute.
    """
    if len(operands) != len(batch):
        raise ValueError(
            f"operand count {len(operands)} does not match batch size {len(batch)}"
        )
    for i, (gemm, (a, b, c)) in enumerate(zip(batch, operands)):
        if a.shape != gemm.a_shape:
            raise ValueError(
                f"GEMM {i}: A has shape {a.shape}, expected {gemm.a_shape}"
            )
        if b.shape != gemm.b_shape:
            raise ValueError(
                f"GEMM {i}: B has shape {b.shape}, expected {gemm.b_shape}"
            )
        if c.shape != (gemm.m, gemm.n):
            raise ValueError(
                f"GEMM {i}: C has shape {c.shape}, expected {(gemm.m, gemm.n)}"
            )
