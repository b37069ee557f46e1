"""Training-set generation for the batching-heuristic selector.

Reproduces the paper's procedure: "We form a training set with more
than 400 samples.  We test all the batching algorithms and label the
sample with the best algorithm."  Each sample is a random batched-GEMM
case; the candidate heuristics are planned and timed on the device
model; the label is the winner; the features are
(mean M, mean N, mean K, B).

By default the candidates are the paper's two heuristics.  Passing a
larger tuple (e.g. including the library's future-work extensions
``"greedy-packing"`` and ``"balanced"``) trains a multi-class selector
-- the "more thorough investigation" Section 5 leaves open.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.problem import Gemm, GemmBatch
from repro.gpu.specs import DeviceSpec

#: Dimension choices for random training cases -- the small-matrix
#: regime the paper targets, K skewed low where batching matters.
_MN_CHOICES = (16, 32, 48, 64, 96, 128, 192, 256, 384, 512)
_K_CHOICES = (16, 32, 48, 64, 96, 128, 192, 256, 512, 1024, 2048)
_B_CHOICES = (2, 4, 8, 12, 16, 24, 32, 48, 64)

#: The paper's candidate set.
DEFAULT_HEURISTICS: tuple[str, ...] = ("threshold", "binary")


@dataclass(frozen=True)
class TrainingSample:
    """One labeled case: the batch and each candidate's time."""

    batch: GemmBatch
    times_ms: dict[str, float]
    heuristics: tuple[str, ...] = DEFAULT_HEURISTICS

    @property
    def label(self) -> int:
        """Index (into ``heuristics``) of the fastest candidate."""
        return min(
            range(len(self.heuristics)),
            key=lambda i: self.times_ms[self.heuristics[i]],
        )

    @property
    def threshold_ms(self) -> float:
        """Convenience accessor for the paper's first heuristic."""
        return self.times_ms["threshold"]

    @property
    def binary_ms(self) -> float:
        """Convenience accessor for the paper's second heuristic."""
        return self.times_ms["binary"]


def random_batch(rng: np.random.Generator, uniform: bool | None = None) -> GemmBatch:
    """Draw one random batched-GEMM case.

    Half the cases are uniform (all GEMMs one size), half variable
    (sizes drawn per GEMM) -- matching the mix of real workloads.
    """
    if uniform is None:
        uniform = bool(rng.integers(0, 2))
    b = int(rng.choice(_B_CHOICES))
    if uniform:
        m = int(rng.choice(_MN_CHOICES))
        n = int(rng.choice(_MN_CHOICES))
        k = int(rng.choice(_K_CHOICES))
        return GemmBatch(Gemm(m, n, k) for _ in range(b))
    return GemmBatch(
        Gemm(
            int(rng.choice(_MN_CHOICES)),
            int(rng.choice(_MN_CHOICES)),
            int(rng.choice(_K_CHOICES)),
        )
        for _ in range(b)
    )


def label_with_best_heuristic(
    device: DeviceSpec,
    batch: GemmBatch,
    heuristics: tuple[str, ...] = DEFAULT_HEURISTICS,
) -> TrainingSample:
    """Time every candidate heuristic on the device model."""
    # Imported here: the framework imports the selector, which lazily
    # imports this module -- top-level imports would cycle.
    from repro.core.framework import CoordinatedFramework

    if len(heuristics) < 2:
        raise ValueError("need at least two candidate heuristics to select among")
    fw = CoordinatedFramework(device=device)
    times = {h: fw.simulate(batch, h).time_ms for h in heuristics}
    return TrainingSample(batch=batch, times_ms=times, heuristics=tuple(heuristics))


def generate_training_set(
    device: DeviceSpec,
    n_samples: int = 400,
    seed: int = 0,
    heuristics: tuple[str, ...] = DEFAULT_HEURISTICS,
) -> tuple[np.ndarray, np.ndarray, list[TrainingSample]]:
    """Generate a labeled training set of ``n_samples`` random cases.

    Returns ``(x, y, samples)``: feature matrix (n, 4), labels (n,)
    indexing ``heuristics``, and the raw samples for inspection.
    """
    if n_samples < 1:
        raise ValueError(f"n_samples must be >= 1, got {n_samples}")
    rng = np.random.default_rng(seed)
    samples = [
        label_with_best_heuristic(device, random_batch(rng), heuristics)
        for _ in range(n_samples)
    ]
    x = np.stack([s.batch.features() for s in samples])
    y = np.array([s.label for s in samples], dtype=np.int64)
    return x, y, samples
