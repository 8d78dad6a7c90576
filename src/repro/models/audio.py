"""Audio modality modules (Table 1's BEATs / AudioLDM examples).

The MLLM architecture of Figure 1 is modality-agnostic: audio plugs in
through an audio encoder producing audio tokens and an audio generator
consuming conditioning tokens. This module provides:

* :class:`BeatsSpec` — a BEATs-style audio encoder: a transformer over
  mel-spectrogram patch tokens (~50 tokens per second of audio at the
  standard 16 kHz / 160-hop configuration);
* :class:`AudioLDMSpec` — an AudioLDM-style latent-diffusion generator
  reusing the UNet machinery of :mod:`repro.models.diffusion`, with work
  driven by ``audio_tokens`` instead of ``image_tokens``.

Both implement :class:`ModuleSpec`, so the cost models price them on
audio workloads, and Algorithm 1 balances the audio tokens a sample
carries. The profiler, the MLLM composition
(:class:`~repro.models.mllm.MultimodalLLMSpec`), the orchestration and
the iteration simulator build image workloads only, so an MLLM rejects
a BEATs encoder or an AudioLDM generator, and
:class:`~repro.timing.profiler.PerformanceProfiler` rejects a cost
model of either.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.models.base import ModuleKind, ModuleSpec, ModuleWorkload
from repro.models.diffusion import DiffusionSpec, UNetConfig
from repro.models.transformer import TransformerConfig

#: BEATs tokenization rate: mel-spectrogram patches per second of audio.
AUDIO_TOKENS_PER_SECOND = 50


@dataclass(frozen=True)
class BeatsSpec(ModuleSpec):
    """BEATs-style audio encoder.

    Attributes:
        config: Transformer stack (non-causal, plain MLP — the BEATs
            base configuration is 12 layers, hidden 768).
        patch_tokens_per_clip_second: Tokenization rate.
    """

    name: str = "beats"
    config: TransformerConfig = None  # type: ignore[assignment]
    patch_tokens_per_clip_second: int = AUDIO_TOKENS_PER_SECOND

    kind = ModuleKind.ENCODER

    def __post_init__(self) -> None:
        if self.config is None:
            raise ValueError("BeatsSpec requires a TransformerConfig")

    def param_count(self) -> int:
        patch_embed = 16 * 16 * self.config.hidden_size  # spectrogram patch
        return self.config.total_params() + patch_embed

    def forward_flops(self, workload: ModuleWorkload) -> float:
        if workload.audio_tokens == 0:
            return 0.0
        tokens_per_clip = self._tokens_per_clip(workload)
        per_token = self.config.matmul_flops_per_token_per_layer()
        per_token += self.config.attention_score_flops_per_token_per_layer(
            tokens_per_clip
        )
        return workload.audio_tokens * self.config.num_layers * per_token

    def activation_bytes(self, workload: ModuleWorkload) -> float:
        tokens_per_clip = self._tokens_per_clip(workload)
        return self.config.activation_bytes(
            workload.audio_tokens, tokens_per_clip
        )

    @property
    def num_layers(self) -> int:
        return self.config.num_layers

    def tokens_for_duration(self, seconds: float) -> int:
        """Audio tokens produced for a clip of ``seconds``."""
        if seconds <= 0:
            raise ValueError("clip duration must be positive")
        return max(1, round(seconds * self.patch_tokens_per_clip_second))

    def _tokens_per_clip(self, workload: ModuleWorkload) -> int:
        if workload.audio_clips > 0:
            return max(1, workload.audio_tokens // workload.audio_clips)
        return max(1, workload.audio_tokens)


@dataclass(frozen=True)
class AudioLDMSpec(DiffusionSpec):
    """AudioLDM-style latent-diffusion audio generator.

    Reuses the UNet parameter/FLOP machinery, but its workload is the
    sample's audio tokens: a clip of ``t`` audio tokens maps to a latent
    "area" the same way an image with ``t`` patch tokens does (AudioLDM
    diffuses over mel-spectrogram latents, which are 2-D like image
    latents).
    """

    name: str = "audioldm"

    def forward_flops(self, workload: ModuleWorkload) -> float:
        return super().forward_flops(self._as_image_workload(workload))

    def activation_bytes(self, workload: ModuleWorkload) -> float:
        return super().activation_bytes(self._as_image_workload(workload))

    @staticmethod
    def _as_image_workload(workload: ModuleWorkload) -> ModuleWorkload:
        return ModuleWorkload(
            samples=workload.samples,
            image_tokens=workload.audio_tokens,
            images=workload.audio_clips,
        )


def _beats(name: str, layers: int, hidden: int) -> BeatsSpec:
    return BeatsSpec(
        name=name,
        config=TransformerConfig(
            num_layers=layers,
            hidden_size=hidden,
            ffn_hidden_size=4 * hidden,
            num_heads=hidden // 64,
            vocab_size=0,
            gated_mlp=False,
            causal=False,
            activation_bytes_per_token_factor=8.0,
        ),
    )


BEATS_BASE = _beats("beats-base", 12, 768)
BEATS_LARGE = _beats("beats-large", 24, 1024)

AUDIO_LDM = AudioLDMSpec(
    unet=UNetConfig(
        base_channels=192,
        channel_mults=(1, 2, 3, 4),
        context_dim=768,
    ),
    vae_params=55_000_000,
)

AUDIO_PRESETS = {
    "beats-base": BEATS_BASE,
    "beats-large": BEATS_LARGE,
    "audioldm": AUDIO_LDM,
}
