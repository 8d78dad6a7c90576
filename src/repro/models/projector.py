"""Projector modules linking encoder/generator to the LLM backbone.

Projectors translate between module hidden spaces: the input projector
maps encoder tokens into LLM embedding space; the output projector maps
LLM hidden states into the generator's conditioning space. The paper
co-locates projectors with the encoder/generator and replicates them as
needed (section 4.1), which we mirror by attaching a ProjectorSpec to
each side of the MLLM composition.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.models.base import ModuleKind, ModuleSpec, ModuleWorkload


@dataclass(frozen=True)
class ProjectorSpec(ModuleSpec):
    """An MLP (or single cross-attention) projector.

    Attributes:
        in_dim: Input hidden width.
        out_dim: Output hidden width.
        hidden_dim: Inner MLP width (0 = single linear layer).
        use_cross_attention: Adds one cross-attention read-out block
            (used by Flamingo-style resampler projectors).
    """

    name: str = "projector"
    in_dim: int = 1280
    out_dim: int = 4096
    hidden_dim: int = 0
    use_cross_attention: bool = False

    kind = ModuleKind.ENCODER  # co-located with its host module

    def __post_init__(self) -> None:
        if self.in_dim <= 0 or self.out_dim <= 0:
            raise ValueError("projector dims must be positive")

    def param_count(self) -> int:
        if self.hidden_dim:
            params = self.in_dim * self.hidden_dim + self.hidden_dim * self.out_dim
        else:
            params = self.in_dim * self.out_dim
        if self.use_cross_attention:
            params += 4 * self.out_dim * self.out_dim
        return params

    def forward_flops(self, workload: ModuleWorkload) -> float:
        return self.token_flops(workload.image_tokens)

    def token_flops(self, image_tokens):
        """Forward FLOPs over ``image_tokens`` tokens: one body for an
        ``int`` or an int64 array of per-sample token counts."""
        return 2.0 * image_tokens * self.param_count()

    def activation_bytes(self, workload: ModuleWorkload) -> float:
        width = self.hidden_dim or max(self.in_dim, self.out_dim)
        return 2.0 * workload.image_tokens * width

    @property
    def num_layers(self) -> int:
        return 1


def mlp_projector(in_dim: int, out_dim: int, name: str = "projector") -> ProjectorSpec:
    """Two-layer MLP projector with the conventional 2x inner width."""
    return ProjectorSpec(
        name=name,
        in_dim=in_dim,
        out_dim=out_dim,
        hidden_dim=2 * max(in_dim, out_dim),
    )
