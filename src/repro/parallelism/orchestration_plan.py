"""Whole-model orchestration plan: the three units plus brokers.

:class:`ModelOrchestrationPlan` is the output of every orchestrator
(DistTrain's adaptive algorithm, Megatron's monolithic mapping, DistMM*'s
FLOPs-proportional split): one :class:`ParallelismPlan` per module, laid
out contiguously on the cluster, with communication brokers between
adjacent units.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

from repro.cluster.cluster import ClusterSpec
from repro.models.mllm import MultimodalLLMSpec
from repro.parallelism.broker import CommunicationBroker, plan_brokers
from repro.parallelism.plan import ParallelismPlan
from repro.parallelism.unit import ParallelismUnit


@dataclass
class ModelOrchestrationPlan:
    """Resource allocation + parallelism strategy for a full MLLM.

    Attributes:
        mllm: The model being trained.
        cluster: Target cluster.
        encoder_plan / llm_plan / generator_plan: Per-module plans.
        monolithic: True when produced by Megatron-style orchestration
            (all modules share TP/DP; encoder/generator ride the LLM's
            pipeline as extra stages).
        label: Orchestrator name for reports.
    """

    mllm: MultimodalLLMSpec
    cluster: ClusterSpec
    encoder_plan: ParallelismPlan
    llm_plan: ParallelismPlan
    generator_plan: ParallelismPlan
    monolithic: bool = False
    label: str = "disttrain"

    def __post_init__(self) -> None:
        if self.num_gpus > self.cluster.num_gpus:
            raise ValueError(
                f"plan needs {self.num_gpus} GPUs but cluster has "
                f"{self.cluster.num_gpus}"
            )

    # ------------------------------------------------------------------ #
    # Units
    # ------------------------------------------------------------------ #
    def build_units(self) -> Dict[str, ParallelismUnit]:
        """Materialize the three parallelism units with rank offsets."""
        offset = 0
        units: Dict[str, ParallelismUnit] = {}
        for name, module, plan in (
            ("encoder", self.mllm.encoder, self.encoder_plan),
            ("llm", self.mllm.llm, self.llm_plan),
            ("generator", self.mllm.generator, self.generator_plan),
        ):
            units[name] = ParallelismUnit(name, module, plan, gpu_offset=offset)
            offset += plan.num_gpus
        return units

    def build_brokers(self) -> Dict[str, List[CommunicationBroker]]:
        """Brokers for the encoder->llm and llm->generator boundaries."""
        units = self.build_units()
        return {
            "encoder->llm": plan_brokers(units["encoder"], units["llm"]),
            "llm->generator": plan_brokers(units["llm"], units["generator"]),
        }

    # ------------------------------------------------------------------ #
    # Aggregates
    # ------------------------------------------------------------------ #
    @property
    def plans(self) -> Dict[str, ParallelismPlan]:
        return {
            "encoder": self.encoder_plan,
            "llm": self.llm_plan,
            "generator": self.generator_plan,
        }

    @property
    def num_gpus(self) -> int:
        return (
            self.encoder_plan.num_gpus
            + self.llm_plan.num_gpus
            + self.generator_plan.num_gpus
        )

    @property
    def microbatch_size(self) -> int:
        return self.llm_plan.microbatch_size

    def num_microbatches(self, global_batch_size: int) -> int:
        return self.llm_plan.num_microbatches(global_batch_size)

    def validate(self, global_batch_size: int) -> None:
        """Full feasibility check of all three plans.

        Only the LLM's DP degree partitions the global batch into
        microbatch streams; encoder/generator replicas split work at
        image granularity through the brokers, so their DP degrees are
        unconstrained by the batch size.
        """
        self.llm_plan.validate_against(
            self.mllm.llm.num_layers, global_batch_size
        )
        for name, plan in (("encoder", self.encoder_plan),
                           ("generator", self.generator_plan)):
            chunks = plan.pp * plan.vpp
            num_layers = self.mllm.module(name).num_layers
            if num_layers < chunks:
                raise ValueError(
                    f"{name}: cannot split {num_layers} layers into "
                    f"{chunks} pipeline chunks"
                )

    def describe(self) -> str:
        lines = [
            f"orchestration [{self.label}] for {self.mllm.name} on "
            f"{self.num_gpus}/{self.cluster.num_gpus} GPUs"
        ]
        for name, plan in self.plans.items():
            lines.append(f"  {name:<10} {plan.describe()}")
        return "\n".join(lines)
