"""GPU memory feasibility (the second constraint of section 4.2).

Per-GPU memory of a module with parameters ``P`` under mixed precision:

* parameters + gradients: ``4 bytes/param / (PP*TP)`` (bf16 each);
  frozen modules keep parameters but no gradients (2 bytes/param);
* optimizer states under ZeRO-1: ``12 bytes/param / (TP*PP*DP)``
  (fp32 master + two Adam moments, sharded across the DP group);
  frozen modules have none;
* activations under 1F1B: the first stage pins ``PP`` microbatches,
  giving ``L/TP`` bytes per GPU where ``L`` is one microbatch's
  activation footprint across the whole module.

Every formula takes the module's scalar accounting (``param_count`` and
one microbatch's ``activation_bytes``) rather than the spec object, and
works elementwise on Python numbers or numpy arrays of parallelism
degrees alike: the orchestration search screens thousands of
candidates in one call, and a scalar call is the same arithmetic on one
point.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class MemoryModel:
    """Memory accounting for one module on one GPU type.

    Attributes:
        gpu_memory_bytes: Device capacity.
        usable_fraction: Capacity available to the framework after CUDA
            context, NCCL buffers, and fragmentation.
        param_bytes / grad_bytes: Bytes per parameter at train precision.
        optimizer_bytes: Bytes per parameter of ZeRO-1-sharded state.
    """

    gpu_memory_bytes: float
    usable_fraction: float = 0.92
    param_bytes: float = 2.0
    grad_bytes: float = 2.0
    optimizer_bytes: float = 12.0

    @property
    def capacity(self) -> float:
        return self.gpu_memory_bytes * self.usable_fraction

    def static_bytes_per_gpu(self, param_count, tp, pp, dp, trainable: bool):
        """Parameters, gradients, and ZeRO-1 optimizer shard."""
        per_model_parallel = param_count / (tp * pp)
        static = per_model_parallel * self.param_bytes
        if trainable:
            static = static + per_model_parallel * self.grad_bytes
            static = static + param_count * self.optimizer_bytes / (
                tp * pp * dp
            )
        return static

    def activation_bytes_per_gpu(self, activation_bytes, tp, in_flight):
        """1F1B peak activation footprint.

        ``in_flight`` is the number of microbatches whose activations
        the stage pins simultaneously (its 1F1B warm-up depth; the first
        stage of a ``p``-deep pipeline pins ``p``).
        """
        if np.any(in_flight < 1):
            raise ValueError("in_flight must be >= 1")
        return activation_bytes / tp * in_flight

    def fits(self, param_count, activation_bytes, tp, pp, dp,
             trainable: bool, in_flight):
        """Whether the module fits one GPU at these degrees; a ``bool``
        for scalar degrees, a boolean array for arrays."""
        total = self.static_bytes_per_gpu(param_count, tp, pp, dp, trainable)
        total = total + self.activation_bytes_per_gpu(
            activation_bytes, tp, in_flight
        ) / pp
        return total <= self.capacity

    def min_pp_for_llm(self, param_count, activation_bytes, tp, dp,
                       trainable: bool, max_pp: int):
        """Smallest pipeline depth at which the LLM fits, with the first
        stage pinning ``pp`` microbatches; ``0`` where no depth up to
        ``max_pp`` does.

        Evaluates :meth:`fits` on the whole ``pp = 1..max_pp`` grid of
        every (tp, dp) row, so the answer is exactly the first fitting
        depth. Returns an ``int`` for scalar ``tp``/``dp``, an integer
        array for arrays.
        """
        depths = np.arange(1, max_pp + 1)
        ok = self.fits(
            param_count, activation_bytes, np.asarray(tp)[..., None],
            depths, np.asarray(dp)[..., None], trainable, depths,
        )
        first = np.where(ok.any(axis=-1), ok.argmax(axis=-1) + 1, 0)
        return int(first) if first.ndim == 0 else first
