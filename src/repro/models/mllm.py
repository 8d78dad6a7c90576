"""Multimodal LLM composition (encoder + backbone + generator).

Combines the three module specs with their projectors into the MLLM
configurations the paper evaluates (section 7, "Models"):

* **MLLM-9B** = ViT-Huge + Llama3-7B + SD2.1, 512x512 generation;
* **MLLM-15B** = ViT-Huge + Llama3-13B + SD2.1, 512x512 generation;
* **MLLM-72B** = ViT-Huge + Llama3-70B + SD2.1, 1024x1024 generation
  (large models get high-resolution generation).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Tuple

from repro.models.base import ModuleSpec, ModuleWorkload
from repro.models.diffusion import DiffusionSpec, STABLE_DIFFUSION_2_1
from repro.models.llm import LLMSpec, LLAMA3_7B, LLAMA3_13B, LLAMA3_70B
from repro.models.projector import ProjectorSpec, mlp_projector
from repro.models.vit import ViTSpec, VIT_HUGE

MODULE_NAMES = ("encoder", "llm", "generator")


def image_tokens_for_resolution(resolution: int, patch_size: int = 16) -> int:
    """Image tokens for a square image: one token per 16x16 patch."""
    if resolution % patch_size != 0:
        raise ValueError(
            f"resolution {resolution} not divisible by patch {patch_size}"
        )
    return (resolution // patch_size) ** 2


@dataclass(frozen=True)
class MultimodalLLMSpec:
    """A full multimodal LLM (Figure 1 of the paper).

    Attributes:
        name: Model label (e.g. ``"mllm-72b"``).
        encoder: Modality encoder spec.
        llm: LLM backbone spec.
        generator: Modality generator spec.
        input_projector: Encoder-to-LLM projector (co-located w/ encoder).
        output_projector: LLM-to-generator projector (co-located w/
            generator).
        generation_resolution: Target image resolution for the generator.
    """

    name: str
    encoder: ViTSpec
    llm: LLMSpec
    generator: DiffusionSpec
    input_projector: ProjectorSpec = None  # type: ignore[assignment]
    output_projector: ProjectorSpec = None  # type: ignore[assignment]
    generation_resolution: int = 512

    def __post_init__(self) -> None:
        # The profiler, the orchestration and the iteration simulator
        # build image workloads only: a non-ViT encoder has no patch
        # size for generation_image_tokens.
        if not isinstance(self.encoder, ViTSpec):
            raise ValueError(
                f"{self.name}: encoder {self.encoder.name!r} is a "
                f"{type(self.encoder).__name__}; an MLLM prices image "
                "workloads only and needs a ViTSpec encoder"
            )
        if self.input_projector is None:
            object.__setattr__(
                self,
                "input_projector",
                mlp_projector(
                    self.encoder.config.hidden_size,
                    self.llm.config.hidden_size,
                    name="input-projector",
                ),
            )
        if self.output_projector is None:
            object.__setattr__(
                self,
                "output_projector",
                mlp_projector(
                    self.llm.config.hidden_size,
                    self.generator.unet.context_dim,
                    name="output-projector",
                ),
            )

    # ------------------------------------------------------------------ #
    # Module access
    # ------------------------------------------------------------------ #
    def module(self, name: str) -> ModuleSpec:
        """Look up a module by canonical name."""
        table: Dict[str, ModuleSpec] = {
            "encoder": self.encoder,
            "llm": self.llm,
            "generator": self.generator,
        }
        if name not in table:
            raise KeyError(
                f"unknown module {name!r}; expected one of {MODULE_NAMES}"
            )
        return table[name]

    @property
    def modules(self) -> Tuple[ModuleSpec, ModuleSpec, ModuleSpec]:
        return (self.encoder, self.llm, self.generator)

    # ------------------------------------------------------------------ #
    # Aggregates
    # ------------------------------------------------------------------ #
    def param_count(self) -> int:
        """Total parameters including projectors."""
        return (
            self.encoder.param_count()
            + self.llm.param_count()
            + self.generator.param_count()
            + self.input_projector.param_count()
            + self.output_projector.param_count()
        )

    def forward_flops(self, workload: ModuleWorkload) -> float:
        """End-to-end forward FLOPs of one microbatch."""
        return (
            self.encoder.forward_flops(workload)
            + self.input_projector.forward_flops(workload)
            + self.llm.forward_flops(workload)
            + self.output_projector.forward_flops(workload)
            + self.generator.forward_flops(workload)
        )

    @property
    def seq_len(self) -> int:
        return self.llm.seq_len

    @property
    def generation_image_tokens(self) -> int:
        """Tokens per generated image at the configured resolution."""
        return image_tokens_for_resolution(
            self.generation_resolution, self.encoder.patch_size
        )

    def describe(self) -> str:
        lines = [f"{self.name}: {self.param_count() / 1e9:.1f}B total"]
        for module in self.modules:
            lines.append("  " + module.describe())
        lines.append(
            f"  generation resolution: "
            f"{self.generation_resolution}x{self.generation_resolution}"
        )
        return "\n".join(lines)


MLLM_9B = MultimodalLLMSpec(
    name="mllm-9b",
    encoder=VIT_HUGE,
    llm=LLAMA3_7B,
    generator=STABLE_DIFFUSION_2_1,
    generation_resolution=512,
)

MLLM_15B = MultimodalLLMSpec(
    name="mllm-15b",
    encoder=VIT_HUGE,
    llm=LLAMA3_13B,
    generator=STABLE_DIFFUSION_2_1,
    generation_resolution=512,
)

MLLM_72B = MultimodalLLMSpec(
    name="mllm-72b",
    encoder=VIT_HUGE,
    llm=LLAMA3_70B,
    generator=STABLE_DIFFUSION_2_1,
    generation_resolution=1024,
)

# Mixture-of-experts variant (section 4.1's EP support): 8x7B backbone,
# ~40B total / ~12B active parameters.
def _moe_mllm() -> MultimodalLLMSpec:
    from repro.models.moe import LLAMA3_MOE_8X7B

    return MultimodalLLMSpec(
        name="mllm-moe-40b",
        encoder=VIT_HUGE,
        llm=LLAMA3_MOE_8X7B,
        generator=STABLE_DIFFUSION_2_1,
        generation_resolution=512,
    )


MLLM_MOE_40B = _moe_mllm()

MLLM_PRESETS = {
    "mllm-9b": MLLM_9B,
    "mllm-15b": MLLM_15B,
    "mllm-72b": MLLM_72B,
    "mllm-moe-40b": MLLM_MOE_40B,
}
