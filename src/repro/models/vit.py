"""Vision Transformer modality encoder.

The paper's encoder is ViT-Huge (0.63B parameters): 32 "narrow"
transformer layers (hidden 1280) that turn 16x16 image patches into image
tokens (section 2.3). Its compute scales with the number of image tokens
in the microbatch — the source of intra/inter-microbatch stragglers.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.models.base import ModuleKind, ModuleSpec, ModuleWorkload
from repro.models.transformer import TransformerConfig


@dataclass(frozen=True)
class ViTSpec(ModuleSpec):
    """ViT modality encoder.

    Attention inside the encoder is per-image: each image's patch tokens
    attend only to that image's other patches, so the attention-score term
    uses the average tokens-per-image, not the packed sequence length.

    Attributes:
        config: Transformer stack (non-causal, plain MLP).
        patch_size: Patch edge in pixels; one patch = one image token.
        in_channels: Input image channels.
    """

    name: str = "vit"
    config: TransformerConfig = None  # type: ignore[assignment]
    patch_size: int = 16
    in_channels: int = 3

    kind = ModuleKind.ENCODER

    def __post_init__(self) -> None:
        if self.config is None:
            raise ValueError("ViTSpec requires a TransformerConfig")
        if self.patch_size <= 0:
            raise ValueError("patch_size must be positive")
        # Per-token patch-embedding FLOPs, fixed for a frozen spec.
        object.__setattr__(self, "_patch_embed_flops", 2.0 * (
            self.in_channels * self.patch_size**2 * self.config.hidden_size
        ))

    # ModuleSpec interface ------------------------------------------------
    def param_count(self) -> int:
        patch_embed = (
            self.in_channels * self.patch_size**2 * self.config.hidden_size
        )
        return self.config.total_params() + patch_embed

    def forward_flops(self, workload: ModuleWorkload) -> float:
        if workload.image_tokens == 0:
            return 0.0
        return self._token_flops(
            workload.image_tokens, self._tokens_per_image(workload)
        )

    def forward_flops_array(
        self, image_tokens: np.ndarray, images: np.ndarray
    ) -> np.ndarray:
        """:meth:`forward_flops` of many one-sample workloads at once.

        Takes int64 arrays of image tokens and image counts, one element
        per workload, and returns float64 FLOPs equal bit for bit to the
        scalar form's: the same integer and IEEE operations, in the
        same order. (Zero tokens give ``0 * x``, exactly 0.0.)
        """
        per_image = image_tokens // np.maximum(images, 1)
        return self._token_flops(image_tokens, np.maximum(per_image, 1))

    def _token_flops(self, image_tokens, tokens_per_image):
        """Forward FLOPs of ``image_tokens`` tokens in images of
        ``tokens_per_image``: one body for ints and int64 arrays."""
        per_token = self.config.matmul_flops_per_token_per_layer()
        per_token += self.config.attention_score_flops(tokens_per_image)
        return image_tokens * (
            self.config.num_layers * per_token + self._patch_embed_flops
        )

    def activation_bytes(self, workload: ModuleWorkload) -> float:
        tokens_per_image = self._tokens_per_image(workload)
        return self.config.activation_bytes(
            workload.image_tokens, tokens_per_image
        )

    @property
    def num_layers(self) -> int:
        return self.config.num_layers

    def boundary_activation_bytes(self, image_tokens: int) -> float:
        """bf16 bytes of the token tensor leaving the encoder."""
        return 2.0 * image_tokens * self.config.hidden_size

    def _tokens_per_image(self, workload: ModuleWorkload) -> int:
        if workload.images > 0:
            return max(1, workload.image_tokens // workload.images)
        return max(1, workload.image_tokens)


def _vit(name: str, layers: int, hidden: int, ffn: int, heads: int) -> ViTSpec:
    return ViTSpec(
        name=name,
        config=TransformerConfig(
            num_layers=layers,
            hidden_size=hidden,
            ffn_hidden_size=ffn,
            num_heads=heads,
            vocab_size=0,
            gated_mlp=False,
            causal=False,
            # ViT encoders inside MLLMs train with full activation
            # recomputation; only layer boundaries are kept.
            activation_bytes_per_token_factor=8.0,
        ),
    )


VIT_HUGE = _vit("vit-huge", 32, 1280, 5120, 16)
VIT_LARGE = _vit("vit-large", 24, 1024, 4096, 16)

VIT_PRESETS = {
    "vit-huge": VIT_HUGE,
    "vit-large": VIT_LARGE,
}
