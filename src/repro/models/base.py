"""Base abstractions shared by all module specifications.

Every MLLM module (encoder, LLM backbone, generator) implements
:class:`ModuleSpec`: it can report its parameter count, the FLOPs of a
forward pass over a :class:`ModuleWorkload`, and the activation memory a
microbatch pins. The cost models in :mod:`repro.timing` and the
orchestration optimizer consume only this interface.
"""

from __future__ import annotations

import enum
from abc import ABC, abstractmethod
from dataclasses import dataclass


class ModuleKind(enum.Enum):
    """Role of a module inside the multimodal LLM pipeline."""

    ENCODER = "encoder"
    BACKBONE = "backbone"
    GENERATOR = "generator"


@dataclass(frozen=True)
class ModuleWorkload:
    """Per-microbatch input description for one module.

    The unit of account differs per module but is always "tokens":

    * the LLM backbone sees ``text_tokens + image_tokens`` interleaved into
      fixed-length sequences (the paper packs to 8K);
    * the modality encoder's work scales with ``image_tokens`` (each
      16x16 image patch is one token);
    * the modality generator's work scales with ``image_tokens`` of the
      images it must generate.

    Attributes:
        samples: Number of training samples in the microbatch.
        text_tokens: Total text tokens across the microbatch.
        image_tokens: Total image tokens across the microbatch.
        images: Number of distinct images in the microbatch.
    """

    samples: int = 1
    text_tokens: int = 0
    image_tokens: int = 0
    images: int = 0

    def __post_init__(self) -> None:
        if min(self.samples, self.text_tokens, self.image_tokens,
               self.images) < 0:
            raise ValueError("workload fields must be non-negative")

    def scaled(self, factor: float) -> "ModuleWorkload":
        """Return a workload scaled by ``factor`` (for sub-microbatches)."""
        return ModuleWorkload(
            samples=max(1, round(self.samples * factor)),
            text_tokens=round(self.text_tokens * factor),
            image_tokens=round(self.image_tokens * factor),
            images=round(self.images * factor),
        )


class ModuleSpec(ABC):
    """Analytic description of one MLLM module.

    Subclasses provide closed-form parameter, FLOP, and activation-memory
    accounting. All byte figures assume mixed-precision training (bf16
    weights/activations, fp32 optimizer master state), matching the
    paper's setup (section 3, "mixed precision training").
    """

    name: str = "module"
    kind: ModuleKind = ModuleKind.BACKBONE

    @abstractmethod
    def param_count(self) -> int:
        """Total trainable parameters."""

    @abstractmethod
    def forward_flops(self, workload: ModuleWorkload) -> float:
        """FLOPs of one forward pass over ``workload``."""

    @abstractmethod
    def activation_bytes(self, workload: ModuleWorkload) -> float:
        """Activation memory one microbatch pins until its backward."""

    @property
    @abstractmethod
    def num_layers(self) -> int:
        """Number of pipeline-splittable layers."""

    # ------------------------------------------------------------------ #
    # Derived quantities
    # ------------------------------------------------------------------ #
    def param_bytes(self, precision_bytes: int = 2) -> float:
        """Bytes for the weights at training precision."""
        return self.param_count() * precision_bytes

    def grad_bytes(self, precision_bytes: int = 2) -> float:
        """Bytes for the gradients (same precision as weights)."""
        return self.param_count() * precision_bytes

    def optimizer_bytes(self) -> float:
        """Adam optimizer state: fp32 master weights + two fp32 moments."""
        return self.param_count() * 12.0

    def backward_flops(
        self, workload: ModuleWorkload, weight_grads: bool = True
    ) -> float:
        """FLOPs of one backward pass.

        A full backward computes both input gradients (one forward-
        equivalent) and weight gradients (another forward-equivalent).
        Frozen modules that only relay gradients skip the weight-gradient
        half (section 7.3).
        """
        factor = 2.0 if weight_grads else 1.0
        return factor * self.forward_flops(workload)

    def describe(self) -> str:
        """One-line summary for logs and reports."""
        params = self.param_count()
        return f"{self.name} ({self.kind.value}, {params / 1e9:.2f}B params)"
