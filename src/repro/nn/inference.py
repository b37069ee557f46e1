"""GoogleNet inference-pass timing (paper Section 7.3, Figure 10).

Four execution modes for the GEMM-dominated part of an inference pass:

* ``"default"`` -- every convolution is its own serial kernel (the
  cuDNN-style baseline; 3.18 ms in the paper).
* ``"streams"`` -- within each inception module the four independent
  branch convolutions run concurrently on streams, as do the two
  inner convolutions; modules are serial (2.41 ms in the paper).
* ``"magma"`` -- like streams, but the four branch GEMMs fuse into a
  MAGMA vbatch kernel (Figure 10's comparison point).
* ``"coordinated"`` -- like streams, but the four branch GEMMs fuse
  through the coordinated tiling/batching framework (2.01 ms in the
  paper).

Only convolution GEMM time is modeled; poolings, concats, and
activations are small and identical across modes, so speedup ratios
are preserved.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.options import Heuristic
from repro.baselines.common import gemm_kernel_blocks, select_single_gemm_strategy
from repro.baselines.magma_vbatch import simulate_magma_vbatch
from repro.core.framework import CoordinatedFramework
from repro.core.problem import GemmBatch
from repro.gpu.costmodel import add_in_order
from repro.gpu.simulator import (
    KernelLaunch,
    simulate_kernel,
    simulate_streams_concurrent,
)
from repro.gpu.specs import DeviceSpec, VOLTA_V100
from repro.nn.googlenet import (
    GOOGLENET_INCEPTIONS,
    GOOGLENET_STEM,
    InceptionModule,
    inception_branch_batch,
)
from repro.nn.layers import ConvLayer, conv_to_gemm

MODES = ("default", "streams", "magma", "coordinated")


@dataclass(frozen=True)
class InferenceResult:
    """Timing of one inference pass plus the per-module breakdown."""

    mode: str
    total_ms: float
    stem_ms: float
    module_ms: dict[str, float]
    branch_gemm_ms: dict[str, float]

    def __str__(self) -> str:
        return f"GoogleNet[{self.mode}]: {self.total_ms:.2f} ms"


def _conv_kernel(layer: ConvLayer, device: DeviceSpec, batch_size: int) -> KernelLaunch:
    gemm = conv_to_gemm(layer, batch_size)
    strategy = select_single_gemm_strategy(gemm, device)
    return KernelLaunch(
        name=layer.name,
        blocks=gemm_kernel_blocks(gemm, strategy),
        compulsory_ab_bytes=float((gemm.m * gemm.k + gemm.k * gemm.n) * 4),
    )


def _serial_ms(layers: list[ConvLayer], device: DeviceSpec, batch_size: int) -> float:
    return add_in_order(
        simulate_kernel(device, _conv_kernel(l, device, batch_size)).time_ms
        for l in layers
    )


def _concurrent_ms(layers: list[ConvLayer], device: DeviceSpec, batch_size: int) -> float:
    kernels = [_conv_kernel(l, device, batch_size) for l in layers]
    return simulate_streams_concurrent(device, kernels).time_ms


def _branch_gemms_ms(
    module: InceptionModule,
    device: DeviceSpec,
    mode: str,
    batch_size: int,
    framework: CoordinatedFramework,
) -> float:
    """Time of the module's four branch GEMMs under the given mode."""
    batch = inception_branch_batch(module, batch_size)
    if mode == "default":
        return _serial_ms(module.branch_convs(), device, batch_size)
    if mode == "streams":
        return _concurrent_ms(module.branch_convs(), device, batch_size)
    if mode == "magma":
        return simulate_magma_vbatch(batch, device).time_ms
    if mode == "coordinated":
        return framework.simulate(batch, heuristic=Heuristic.BEST).time_ms
    raise ValueError(f"unknown mode {mode!r}; known: {MODES}")


def simulate_inference(
    device: DeviceSpec = VOLTA_V100,
    mode: str = "coordinated",
    batch_size: int = 1,
) -> InferenceResult:
    """Time one GoogleNet inference pass under an execution mode."""
    if mode not in MODES:
        raise ValueError(f"unknown mode {mode!r}; known: {MODES}")
    framework = CoordinatedFramework(device=device)

    stem_ms = _serial_ms(list(GOOGLENET_STEM), device, batch_size)
    module_ms: dict[str, float] = {}
    branch_ms: dict[str, float] = {}
    for module in GOOGLENET_INCEPTIONS:
        b_ms = _branch_gemms_ms(module, device, mode, batch_size, framework)
        if mode == "default":
            inner_ms = _serial_ms(module.inner_convs(), device, batch_size)
        else:
            inner_ms = _concurrent_ms(module.inner_convs(), device, batch_size)
        branch_ms[module.name] = b_ms
        module_ms[module.name] = b_ms + inner_ms

    total = stem_ms + add_in_order(module_ms.values())
    return InferenceResult(
        mode=mode,
        total_ms=total,
        stem_ms=stem_ms,
        module_ms=module_ms,
        branch_gemm_ms=branch_ms,
    )


def inception_layer_speedups(
    device: DeviceSpec = VOLTA_V100, batch_size: int = 1
) -> dict[str, float]:
    """Figure 10: per-module speedup of the coordinated framework over
    MAGMA on the four batched branch GEMMs."""
    framework = CoordinatedFramework(device=device)
    out: dict[str, float] = {}
    for module in GOOGLENET_INCEPTIONS:
        batch = inception_branch_batch(module, batch_size)
        magma_ms = simulate_magma_vbatch(batch, device).time_ms
        ours_ms = framework.simulate(batch, heuristic=Heuristic.BEST).time_ms
        out[module.name] = magma_ms / ours_ms
    return out
