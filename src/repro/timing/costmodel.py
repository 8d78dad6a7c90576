"""Per-module cost model: the paper's ``C(TP)`` time functions.

:class:`ModuleCostModel` computes the forward/backward wall-clock time of
one module for a workload at a given tensor-parallel degree, combining:

* roofline compute time (:mod:`repro.timing.roofline`);
* exposed TP communication (two allreduces per transformer layer, per
  direction), optionally overlapped by StepCCL (section A.1).

This is exactly the quantity the paper's profiler measures with trial runs
and feeds into the orchestration objective (Eqs. 1-2), where it appears as
``C_lm(TP_lm)``, ``C_me(TP_me)``, and ``C_mg(TP_mg)``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Tuple

import numpy as np

from repro.cluster.node import NodeSpec
from repro.models.base import ModuleSpec, ModuleWorkload
from repro.models.diffusion import DiffusionSpec
from repro.models.llm import LLMSpec
from repro.models.projector import ProjectorSpec
from repro.models.transformer import TransformerConfig
from repro.models.vit import ViTSpec
from repro.timing.collectives import CollectiveModel
from repro.timing.roofline import (
    DEFAULT_EFFICIENCY,
    EfficiencyModel,
    kernel_time,
    kernel_times,
)

BF16_BYTES = 2.0


def tp_comm_bytes_forward(module: ModuleSpec, workload: ModuleWorkload) -> float:
    """Total bytes allreduced by one TP forward pass of ``module``.

    Megatron-style tensor parallelism performs two allreduces per
    transformer layer, each carrying the full ``tokens x hidden`` bf16
    activation. The diffusion UNet allreduces only in its spatial
    transformer blocks (feature maps elsewhere stay local).
    """
    if isinstance(module, LLMSpec):
        tokens = workload.samples * module.seq_len
        return transformer_tp_bytes(module.config, tokens)
    if isinstance(module, ViTSpec):
        return transformer_tp_bytes(module.config, workload.image_tokens)
    if isinstance(module, DiffusionSpec):
        if workload.image_tokens == 0:
            return 0.0
        images = max(1, workload.images)
        tokens_per_image = max(1, workload.image_tokens // images)
        latent_side = module.latent_side_for_tokens(tokens_per_image)
        total = 0.0
        for level in range(module.unet.num_levels):
            c = module.unet.level_channels(level)
            hw = max(1, latent_side // (2**level)) ** 2
            # Down + up + mid ResNet blocks each end in an output-channel
            # allreduce when convolutions are channel-sharded; attention
            # levels add two more allreduces per block.
            blocks = module.unet.res_blocks_per_level * 2 + 1
            allreduces = 1.0
            if level in module.unet.attention_levels:
                allreduces += 2.0
            total += blocks * allreduces * hw * c * BF16_BYTES
        return images * total
    if isinstance(module, ProjectorSpec):
        return 0.0  # projectors are replicated, never tensor-parallel
    return 0.0


def transformer_tp_bytes(config: TransformerConfig, tokens):
    """Bytes one TP forward pass of a transformer stack allreduces over
    ``tokens`` tokens: one body for an ``int`` or an int64 array."""
    per_layer = 2.0 * tokens * config.hidden_size * BF16_BYTES
    return config.num_layers * per_layer


@dataclass
class ModuleCostModel:
    """Time functions for one module on one node type.

    Attributes:
        module: The module spec.
        node: Node hosting the module's TP group (GPU + links).
        efficiency: Roofline efficiency model.
        tp_overlap_fraction: Fraction of TP communication hidden behind
            computation. 0 models vanilla NCCL (communication fully
            exposed); DistTrain's StepCCL raises this to ~0.9
            (section A.1). The residue models the first allgather on the
            critical path and layout-remap costs.
        ep: Default expert-parallel degree for MoE backbones; callers
            may override per query. Ignored by dense modules.
    """

    module: ModuleSpec
    node: NodeSpec
    efficiency: EfficiencyModel = field(default_factory=lambda: DEFAULT_EFFICIENCY)
    tp_overlap_fraction: float = 0.0
    ep: int = 1

    def __post_init__(self) -> None:
        if not 0.0 <= self.tp_overlap_fraction <= 1.0:
            raise ValueError("tp_overlap_fraction must be in [0, 1]")
        self.collectives = CollectiveModel(
            intra_link=self.node.intra_link, inter_link=self.node.inter_link
        )

    # ------------------------------------------------------------------ #
    # Forward / backward time
    # ------------------------------------------------------------------ #
    def forward_time(
        self, workload: ModuleWorkload, tp: int = 1, ep: int = 0
    ) -> float:
        """Forward time of the *entire* module for ``workload`` on a TP
        (and, for MoE backbones, EP) group — the paper's ``C(TP)``.

        EP and TP both parallelize within a layer (section 4.1), so the
        compute splits across ``tp * ep`` GPUs; EP adds the all-to-all
        token dispatch/combine on the cross-node fabric. ``ep=0`` (the
        default) uses the model's configured default.
        """
        ep = ep or self.ep
        compute = kernel_time(
            self.module.forward_flops(workload),
            self.node.gpu,
            self.module.kind,
            tp=tp * ep,
            num_layers=self.module.num_layers,
            efficiency=self.efficiency,
        )
        return (
            compute
            + self.exposed_tp_comm_time(workload, tp)
            + self.ep_comm_time(workload, ep)
        )

    def backward_time(
        self,
        workload: ModuleWorkload,
        tp: int = 1,
        weight_grads: bool = True,
        ep: int = 0,
    ) -> float:
        """Backward time; frozen modules relay gradients only.

        A full backward costs ~2x forward compute (input + weight grads)
        plus the mirrored TP/EP communication; a dX-only backward ~1x.
        """
        ep = ep or self.ep
        factor = 2.0 if weight_grads else 1.0
        compute = kernel_time(
            self.module.backward_flops(workload, weight_grads=weight_grads),
            self.node.gpu,
            self.module.kind,
            tp=tp * ep,
            num_layers=self.module.num_layers,
            efficiency=self.efficiency,
        )
        return (
            compute
            + factor * self.exposed_tp_comm_time(workload, tp)
            + factor * self.ep_comm_time(workload, ep)
        )

    def sample_times(
        self,
        image_tokens: np.ndarray,
        images: np.ndarray,
        tp: int = 1,
        weight_grads: bool = True,
        backward: bool = True,
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Per-sample (forward, backward) seconds of a ViT encoder.

        ``image_tokens`` and ``images`` are int64 arrays, one element per
        sample. Element ``i`` of each result equals, bit for bit, what
        :meth:`forward_time` and :meth:`backward_time` return for a
        workload of ``image_tokens[i]`` tokens in ``images[i]`` images:
        the same IEEE operations in the same order, and 0.0 s of compute
        and communication for a zero. ``backward=False`` gives a zero
        backward (a frozen encoder runs none). A ViT has no experts, so
        EP only widens the compute split, as in the scalar forms.
        """
        module = self.module
        flops = module.forward_flops_array(image_tokens, images)
        comm = 0.0
        if tp > 1:
            volume = transformer_tp_bytes(module.config, image_tokens)
            raw = self.collectives.tp_allreduce_times(volume, tp)
            comm = raw * (1.0 - self.tp_overlap_fraction)
        roofline = dict(
            gpu=self.node.gpu,
            kind=module.kind,
            tp=tp * self.ep,
            num_layers=module.num_layers,
            efficiency=self.efficiency,
        )
        forward = kernel_times(flops, **roofline) + comm
        if not backward:
            return forward, np.zeros_like(forward)
        factor = 2.0 if weight_grads else 1.0
        backward_s = kernel_times(factor * flops, **roofline) + factor * comm
        return forward, backward_s

    # ------------------------------------------------------------------ #
    # Communication components
    # ------------------------------------------------------------------ #
    def tp_comm_time(self, workload: ModuleWorkload, tp: int) -> float:
        """Raw (un-overlapped) TP allreduce time of one forward pass."""
        if tp <= 1:
            return 0.0
        volume = tp_comm_bytes_forward(self.module, workload)
        return self.collectives.tp_allreduce(volume, tp)

    def exposed_tp_comm_time(self, workload: ModuleWorkload, tp: int) -> float:
        """TP communication remaining on the critical path."""
        raw = self.tp_comm_time(workload, tp)
        return raw * (1.0 - self.tp_overlap_fraction)

    def ep_comm_time(self, workload: ModuleWorkload, ep: int) -> float:
        """Expert-parallel all-to-all time of one forward pass.

        Zero for dense modules or ``ep == 1``. Token dispatch/combine is
        hard to overlap (it gates the expert GEMMs), so it is charged in
        full.
        """
        if ep <= 1:
            return 0.0
        dispatch = getattr(self.module, "expert_dispatch_bytes_forward", None)
        if dispatch is None:
            return 0.0
        return self.collectives.ep_all_to_all(dispatch(workload), ep)
