"""StepCCL applied to transformer layers (Figure 22's experiment).

Builds the per-layer :class:`OverlapConfig` from the module cost model
(GEMM time from the roofline, allgather time from the collective model)
and computes the iteration time of one LLM pipeline stage — one minimal
TP group — with and without StepCCL, for each backbone and TP size.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

from repro.cluster.node import NodeSpec
from repro.models.base import ModuleKind
from repro.models.llm import LLMSpec
from repro.timing.collectives import CollectiveModel
from repro.timing.roofline import DEFAULT_EFFICIENCY, EfficiencyModel, kernel_time
from repro.stepccl.overlap import (
    OverlapConfig,
    simulate_overlapped,
    simulate_sequential,
)


@dataclass
class StepCCLLayerModel:
    """Per-layer timing of a TP transformer layer with/without StepCCL.

    Attributes:
        llm: Backbone spec.
        node: Node hosting the TP group.
        tp: Tensor-parallel degree.
        num_chunks: StepCCL decomposition granularity.
        efficiency: Roofline model.
    """

    llm: LLMSpec
    node: NodeSpec
    tp: int
    num_chunks: int = 4
    efficiency: EfficiencyModel = None  # type: ignore[assignment]

    def __post_init__(self) -> None:
        if self.tp < 1:
            raise ValueError("tp must be >= 1")
        if self.efficiency is None:
            self.efficiency = DEFAULT_EFFICIENCY
        self.collectives = CollectiveModel(
            intra_link=self.node.intra_link, inter_link=self.node.inter_link
        )

    # ------------------------------------------------------------------ #
    # Per-layer components
    # ------------------------------------------------------------------ #
    def layer_compute_time(self, tokens: int, direction: str = "fwd") -> float:
        """GEMM time of one layer for ``tokens`` tokens on the TP group."""
        cfg = self.llm.config
        flops = tokens * (
            cfg.matmul_flops_per_token_per_layer()
            + cfg.attention_score_flops_per_token_per_layer(self.llm.seq_len)
        )
        if direction == "bwd":
            flops *= 2.0
        return kernel_time(
            flops,
            self.node.gpu,
            ModuleKind.BACKBONE,
            tp=self.tp,
            num_layers=1,
            efficiency=self.efficiency,
        )

    def layer_comm_time(self, tokens: int) -> float:
        """Two allgather/reduce-scatter pairs per layer per direction."""
        if self.tp <= 1:
            return 0.0
        volume = 2.0 * tokens * self.llm.config.hidden_size * 2.0
        return self.collectives.tp_allreduce(volume, self.tp)

    def overlap_config(
        self, tokens: int, direction: str = "fwd"
    ) -> OverlapConfig:
        compute = self.layer_compute_time(tokens, direction)
        comm = self.layer_comm_time(tokens)
        # The remap is a transpose of the gathered activation; cheap, and
        # overlappable with the weight-grad GEMM in the backward pass.
        remap = 0.05 * comm
        return OverlapConfig(
            comm_time=comm,
            compute_time=compute,
            num_chunks=self.num_chunks,
            remap_time=remap,
            remap_overlappable=(direction == "bwd"),
        )

    # ------------------------------------------------------------------ #
    # Layer / stage times
    # ------------------------------------------------------------------ #
    def layer_time(
        self, tokens: int, direction: str, stepccl: bool
    ) -> float:
        config = self.overlap_config(tokens, direction)
        if stepccl:
            return simulate_overlapped(config).total_time
        return simulate_sequential(config).total_time

    def stage_time(
        self,
        tokens: int,
        layers_per_stage: int,
        stepccl: bool,
    ) -> Tuple[float, float]:
        """(forward, backward) time of one PP stage per microbatch."""
        fwd = layers_per_stage * self.layer_time(tokens, "fwd", stepccl)
        bwd = layers_per_stage * self.layer_time(tokens, "bwd", stepccl)
        return fwd, bwd


def llm_stage_iteration_time(
    llm: LLMSpec,
    node: NodeSpec,
    tp: int,
    stepccl: bool,
    num_microbatches: int = 8,
    microbatch_size: int = 1,
    layers_per_stage: int = 8,
    num_chunks: int = 4,
) -> float:
    """Iteration time of one LLM PP stage (one minimal TP group).

    The Figure 22 measurement: forward+backward over the iteration's
    microbatches for a single stage, isolated from the rest of the
    pipeline.
    """
    model = StepCCLLayerModel(llm=llm, node=node, tp=tp, num_chunks=num_chunks)
    tokens = microbatch_size * llm.seq_len
    fwd, bwd = model.stage_time(tokens, layers_per_stage, stepccl)
    return num_microbatches * (fwd + bwd)
