"""Latent-diffusion modality generator (Stable-Diffusion style).

The paper's generator is Stable Diffusion 2.1 (~1B parameters): a UNet
that mixes convolution and attention layers plus a VAE that maps images
to/from an 8x-downsampled latent space. Unlike the transformer modules,
its compute is dominated by convolutions over feature maps whose size
scales with image resolution — which is why Figure 3 shows the generator's
forward time exploding at 1024x1024 while the LLM stage stays flat.

During multimodal-LLM training the generator performs one denoising step
per target image per optimization step (the standard diffusion training
objective draws a single random timestep), conditioned on the LLM output
through cross-attention.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Tuple

from repro.models.base import ModuleKind, ModuleSpec, ModuleWorkload


@dataclass(frozen=True)
class UNetConfig:
    """Block-structured UNet architecture.

    Attributes:
        base_channels: Channels at the highest resolution level.
        channel_mults: Per-level channel multipliers, top to bottom.
        res_blocks_per_level: ResNet blocks per level (down path).
        attention_levels: Level indices that include a transformer block
            (self-attention + cross-attention + feed-forward).
        context_dim: Cross-attention context width (LLM projector output).
        time_embed_dim: Timestep embedding width.
        latent_channels: VAE latent channels.
        latent_downsample: Pixel-to-latent downsampling factor.
    """

    base_channels: int = 320
    channel_mults: Tuple[int, ...] = (1, 2, 4, 4)
    res_blocks_per_level: int = 2
    attention_levels: Tuple[int, ...] = (0, 1, 2)
    context_dim: int = 1024
    time_embed_dim: int = 1280
    latent_channels: int = 4
    latent_downsample: int = 8

    def level_channels(self, level: int) -> int:
        return self.base_channels * self.channel_mults[level]

    @property
    def num_levels(self) -> int:
        return len(self.channel_mults)


def _resnet_params(c_in: int, c_out: int, t_dim: int) -> int:
    """Parameters of one UNet ResNet block."""
    conv1 = 9 * c_in * c_out
    conv2 = 9 * c_out * c_out
    skip = c_in * c_out if c_in != c_out else 0
    time_proj = t_dim * c_out
    norms = 2 * (c_in + c_out)
    return conv1 + conv2 + skip + time_proj + norms


def _attention_params(c: int, context_dim: int) -> int:
    """Parameters of one spatial transformer block."""
    proj_in_out = 2 * c * c
    self_attn = 4 * c * c
    cross_attn = 2 * c * c + 2 * c * context_dim
    feed_forward = 8 * c * c  # GEGLU: two c->4c matrices plus 4c->c
    return proj_in_out + self_attn + cross_attn + feed_forward


def _resnet_flops(c_in: int, c_out: int, hw: int) -> float:
    """Forward FLOPs of one ResNet block on an ``hw``-position map."""
    conv1 = 2.0 * 9 * c_in * c_out * hw
    conv2 = 2.0 * 9 * c_out * c_out * hw
    skip = 2.0 * c_in * c_out * hw if c_in != c_out else 0.0
    return conv1 + conv2 + skip


def _attention_flops(c: int, context_dim: int, hw: int, ctx_len: int) -> float:
    """Forward FLOPs of one spatial transformer block."""
    proj = 2.0 * 2 * c * c * hw
    self_qkvo = 2.0 * 4 * c * c * hw
    self_scores = 2.0 * 2 * hw * hw * c
    cross_qo = 2.0 * 2 * c * c * hw
    cross_kv = 2.0 * 2 * c * context_dim * ctx_len
    cross_scores = 2.0 * 2 * hw * ctx_len * c
    feed_forward = 2.0 * 8 * c * c * hw
    return (
        proj + self_qkvo + self_scores + cross_qo + cross_kv + cross_scores
        + feed_forward
    )


@dataclass(frozen=True)
class DiffusionSpec(ModuleSpec):
    """Latent-diffusion generator module.

    Work scales with the number and resolution of target images. The
    workload's ``image_tokens`` field (image area / 16x16 patches, shared
    with the encoder) determines the latent area: a 16x16 pixel patch maps
    to a 2x2 latent patch at ``latent_downsample=8``.

    Attributes:
        unet: UNet architecture.
        vae_params: VAE parameter count (frozen; encodes targets to
            latents). Counted in params but not in trainable gradients.
        cross_attention_tokens: Conditioning tokens per image from the
            output projector.
    """

    name: str = "stable-diffusion"
    unet: UNetConfig = field(default_factory=UNetConfig)
    vae_params: int = 83_000_000
    cross_attention_tokens: int = 64

    kind = ModuleKind.GENERATOR

    # ------------------------------------------------------------------ #
    # Parameters
    # ------------------------------------------------------------------ #
    def unet_param_count(self) -> int:
        # Per-instance memo (the spec is frozen, so the count is fixed);
        # avoids an unbounded class-level lru_cache pinning every spec.
        cached = self.__dict__.get("_unet_param_count")
        if cached is not None:
            return cached
        value = self._unet_param_count_walk()
        object.__setattr__(self, "_unet_param_count", value)
        return value

    def _unet_param_count_walk(self) -> int:
        cfg = self.unet
        total = 0
        # Down path.
        c_prev = cfg.base_channels
        for level in range(cfg.num_levels):
            c = cfg.level_channels(level)
            for _ in range(cfg.res_blocks_per_level):
                total += _resnet_params(c_prev, c, cfg.time_embed_dim)
                if level in cfg.attention_levels:
                    total += _attention_params(c, cfg.context_dim)
                c_prev = c
            if level != cfg.num_levels - 1:
                total += 9 * c * c  # downsample conv
        # Mid block: resnet + attention + resnet at the deepest width.
        c_mid = cfg.level_channels(cfg.num_levels - 1)
        total += 2 * _resnet_params(c_mid, c_mid, cfg.time_embed_dim)
        total += _attention_params(c_mid, cfg.context_dim)
        # Up path: skip connections double the input channels.
        for level in reversed(range(cfg.num_levels)):
            c = cfg.level_channels(level)
            for _ in range(cfg.res_blocks_per_level + 1):
                total += _resnet_params(c_prev + c, c, cfg.time_embed_dim)
                if level in cfg.attention_levels:
                    total += _attention_params(c, cfg.context_dim)
                c_prev = c
            if level != 0:
                total += 9 * c * c  # upsample conv
        # Stem and head.
        total += 9 * cfg.latent_channels * cfg.base_channels
        total += 9 * cfg.base_channels * cfg.latent_channels
        # Time embedding MLP.
        total += cfg.base_channels * cfg.time_embed_dim
        total += cfg.time_embed_dim * cfg.time_embed_dim
        return total

    def param_count(self) -> int:
        return self.unet_param_count() + self.vae_params

    # ------------------------------------------------------------------ #
    # FLOPs
    # ------------------------------------------------------------------ #
    def latent_side_for_tokens(self, tokens_per_image: int) -> int:
        """Latent edge length for an image with ``tokens_per_image``.

        A square image with ``t`` 16x16-patch tokens has edge
        ``16*sqrt(t)`` pixels, hence latent edge ``16*sqrt(t)/downsample``.
        """
        if tokens_per_image <= 0:
            raise ValueError("tokens_per_image must be positive")
        pixels_side = 16.0 * tokens_per_image**0.5
        return max(1, round(pixels_side / self.unet.latent_downsample))

    def unet_flops_per_image(self, tokens_per_image: int) -> float:
        """Forward FLOPs of one denoising step for one image.

        Pure in ``(self, tokens_per_image)`` — and image sizes snap to
        the 16-pixel patch grid, so only ~64 distinct token counts occur
        per run. A per-instance memo keeps the UNet walk off the
        per-sample cost path (safe: the spec is frozen).
        """
        cache = self.__dict__.get("_unet_flops_cache")
        if cache is None:
            cache = {}
            object.__setattr__(self, "_unet_flops_cache", cache)
        cached = cache.get(tokens_per_image)
        if cached is not None:
            return cached
        value = self._unet_flops_walk(tokens_per_image)
        cache[tokens_per_image] = value
        return value

    def _unet_flops_walk(self, tokens_per_image: int) -> float:
        cfg = self.unet
        latent_side = self.latent_side_for_tokens(tokens_per_image)
        ctx = self.cross_attention_tokens
        total = 0.0
        c_prev = cfg.base_channels
        # Down path.
        for level in range(cfg.num_levels):
            c = cfg.level_channels(level)
            hw = max(1, latent_side // (2**level)) ** 2
            for _ in range(cfg.res_blocks_per_level):
                total += _resnet_flops(c_prev, c, hw)
                if level in cfg.attention_levels:
                    total += _attention_flops(c, cfg.context_dim, hw, ctx)
                c_prev = c
        # Mid.
        c_mid = cfg.level_channels(cfg.num_levels - 1)
        hw_mid = max(1, latent_side // (2 ** (cfg.num_levels - 1))) ** 2
        total += 2 * _resnet_flops(c_mid, c_mid, hw_mid)
        total += _attention_flops(c_mid, cfg.context_dim, hw_mid, ctx)
        # Up path.
        for level in reversed(range(cfg.num_levels)):
            c = cfg.level_channels(level)
            hw = max(1, latent_side // (2**level)) ** 2
            for _ in range(cfg.res_blocks_per_level + 1):
                total += _resnet_flops(c_prev + c, c, hw)
                if level in cfg.attention_levels:
                    total += _attention_flops(c, cfg.context_dim, hw, ctx)
                c_prev = c
        # Stem / head convs at full latent resolution.
        hw0 = latent_side**2
        total += 2.0 * 9 * cfg.latent_channels * cfg.base_channels * hw0
        total += 2.0 * 9 * cfg.base_channels * cfg.latent_channels * hw0
        return total

    def vae_encode_flops_per_image(self, tokens_per_image: int) -> float:
        """Forward-only VAE encode of the target image (frozen)."""
        pixels = tokens_per_image * 16 * 16
        # Empirically the SD VAE encoder costs ~0.6 MFLOPs per pixel.
        return 0.6e6 * pixels

    def forward_flops(self, workload: ModuleWorkload) -> float:
        if workload.image_tokens == 0:
            return 0.0
        tokens_per_image = self._tokens_per_image(workload)
        images = max(1, workload.images) if workload.image_tokens else 0
        per_image = self.unet_flops_per_image(tokens_per_image)
        per_image += self.vae_encode_flops_per_image(tokens_per_image)
        return images * per_image

    # ------------------------------------------------------------------ #
    # Memory
    # ------------------------------------------------------------------ #
    def activation_bytes(self, workload: ModuleWorkload) -> float:
        """Feature-map activations pinned per microbatch (bf16)."""
        if workload.image_tokens == 0:
            return 0.0
        cfg = self.unet
        tokens_per_image = self._tokens_per_image(workload)
        latent_side = self.latent_side_for_tokens(tokens_per_image)
        images = max(1, workload.images)
        per_image = 0.0
        for level in range(cfg.num_levels):
            c = cfg.level_channels(level)
            hw = max(1, latent_side // (2**level)) ** 2
            blocks = 2 * cfg.res_blocks_per_level + 1
            # With gradient checkpointing per block (the standard SD
            # training configuration), only a few boundary tensors per
            # block survive to the backward pass.
            tensors_per_block = 3.0
            per_image += blocks * tensors_per_block * c * hw * 2.0
        return images * per_image

    @property
    def num_layers(self) -> int:
        """UNet levels are the natural pipeline-split granularity."""
        cfg = self.unet
        per_level = cfg.res_blocks_per_level * 2 + 1
        return cfg.num_levels * per_level + 2

    def boundary_activation_bytes(self, images: int) -> float:
        """bf16 bytes of conditioning tensors entering the generator."""
        return 2.0 * images * self.cross_attention_tokens * self.unet.context_dim

    def _tokens_per_image(self, workload: ModuleWorkload) -> int:
        if workload.images > 0:
            return max(1, workload.image_tokens // workload.images)
        return max(1, workload.image_tokens)


STABLE_DIFFUSION_2_1 = DiffusionSpec(name="stable-diffusion-2.1")

DIFFUSION_PRESETS = {
    "sd-2.1": STABLE_DIFFUSION_2_1,
}
