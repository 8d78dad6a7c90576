"""Roofline kernel-time model.

Maps FLOPs to wall-clock time on one GPU:

``time = flops / (peak * efficiency) + layers * launch_overhead``

Efficiency depends on the operator mix (wide GEMMs run near peak, narrow
transformer layers and convolutions lower) and degrades as tensor
parallelism shrinks the per-GPU GEMMs. These coefficients reproduce the
per-stage times in Figure 3 and the ~55% end-to-end MFU ceiling the paper
reports for well-balanced text-only training.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.cluster.gpu import GPUSpec
from repro.models.base import ModuleKind


@dataclass(frozen=True)
class EfficiencyModel:
    """Achievable fraction of peak FLOPs per module kind.

    Attributes:
        base: Efficiency at TP=1 per module kind. Wide LLM GEMMs reach
            ~62% of bf16 peak on Ampere; narrow ViT layers ~45%; the
            diffusion UNet's conv/attention mix ~42%.
        tp_penalty_per_doubling: Multiplicative efficiency loss per TP
            doubling, per module kind. Wide LLM GEMMs shard gracefully;
            the ViT's narrow (hidden 1280) layers fragment badly; the
            UNet's convolutions are the worst fit for tensor parallelism.
            This is why Megatron-LM's monolithic TP=8 makes the encoder /
            generator stages balloon in Figure 3 while DistTrain runs
            them replicated at TP=1.
        launch_overhead: Fixed per-layer kernel-launch/dispatch time (s).
    """

    base: dict = None  # type: ignore[assignment]
    tp_penalty_per_doubling: dict = None  # type: ignore[assignment]
    launch_overhead: float = 25e-6

    def __post_init__(self) -> None:
        if self.base is None:
            object.__setattr__(
                self,
                "base",
                {
                    ModuleKind.BACKBONE: 0.66,
                    ModuleKind.ENCODER: 0.50,
                    ModuleKind.GENERATOR: 0.46,
                },
            )
        if self.tp_penalty_per_doubling is None:
            object.__setattr__(
                self,
                "tp_penalty_per_doubling",
                {
                    ModuleKind.BACKBONE: 0.025,
                    ModuleKind.ENCODER: 0.09,
                    ModuleKind.GENERATOR: 0.16,
                },
            )

    def efficiency(self, kind: ModuleKind, tp: int = 1) -> float:
        """Achievable efficiency for ``kind`` at tensor parallel ``tp``."""
        if tp < 1:
            raise ValueError("tp must be >= 1")
        base = self.base[kind]
        penalty = self.tp_penalty_per_doubling[kind]
        doublings = math.log2(tp)
        eff = base * (1.0 - penalty * doublings)
        return max(0.05, eff)


DEFAULT_EFFICIENCY = EfficiencyModel()


def kernel_time(
    flops: float,
    gpu: GPUSpec,
    kind: ModuleKind,
    tp: int = 1,
    num_layers: int = 1,
    efficiency: EfficiencyModel = DEFAULT_EFFICIENCY,
    precision: str = "bf16",
) -> float:
    """Wall-clock compute time of ``flops`` split across ``tp`` GPUs.

    Args:
        flops: Total FLOPs of the operation (before TP splitting).
        gpu: Device executing the kernels.
        kind: Module kind, selects the efficiency roofline.
        tp: Tensor-parallel degree (work divides evenly across GPUs).
        num_layers: Layer count, for launch-overhead accounting.
        efficiency: Efficiency model to use.
        precision: Matrix precision for peak lookup.
    """
    if flops < 0:
        raise ValueError("flops must be non-negative")
    if flops == 0:
        return 0.0
    return _roofline(flops, gpu, kind, tp, num_layers, efficiency, precision)


def kernel_times(
    flops: np.ndarray,
    gpu: GPUSpec,
    kind: ModuleKind,
    tp: int = 1,
    num_layers: int = 1,
    efficiency: EfficiencyModel = DEFAULT_EFFICIENCY,
    precision: str = "bf16",
) -> np.ndarray:
    """:func:`kernel_time` of each element of a float64 array of
    non-negative FLOPs, bit for bit; zero FLOPs take exactly 0.0 s."""
    times = _roofline(flops, gpu, kind, tp, num_layers, efficiency, precision)
    return np.where(flops == 0, 0.0, times)


def _roofline(flops, gpu, kind, tp, num_layers, efficiency, precision):
    """Compute plus launch overhead: one body for floats and arrays."""
    eff = efficiency.efficiency(kind, tp)
    achieved = gpu.peak(precision) * eff
    compute = flops / tp / achieved
    overhead = num_layers * efficiency.launch_overhead
    return compute + overhead
