"""Orchestration problem definition.

Bundles everything the DistTrain manager gathers before training
(section 3): the model architecture, the training configuration (global
batch size, microbatch size), a profile of the training data (the manager
"samples a subset of training data to analyze the data distribution"),
the frozen-phase configuration, and the profiled time functions.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, Sequence

import numpy as np

from repro.cluster.cluster import ClusterSpec
from repro.core.keyedcache import KeyedCache
from repro.data.sample import TrainingSample
from repro.models.base import ModuleWorkload
from repro.models.mllm import MODULE_NAMES, MultimodalLLMSpec
from repro.runtime.frozen import FrozenConfig
from repro.timing.costmodel import ModuleCostModel
from repro.timing.profiler import PerformanceProfiler
from repro.timing.roofline import DEFAULT_EFFICIENCY, EfficiencyModel


#: Profilers shared across problems (see
#: :meth:`OrchestrationProblem.profiler`) — the same keyed-cache module
#: the plan cache and data-profile cache use.
PROFILER_CACHE = KeyedCache(maxsize=32, name="profiler")


@dataclass(frozen=True)
class SampleProfile:
    """Average per-sample data profile from the manager's data sampling.

    Attributes:
        image_tokens: Mean image tokens per training sample (encoder
            work driver).
        images: Mean image subsequences per sample.
        gen_images: Mean images the generator must produce per sample
            (the paper generates every image in the sample at the model's
            generation resolution).
    """

    image_tokens: float = 5000.0
    images: float = 6.0
    gen_images: float = 6.0

    @classmethod
    def from_samples(cls, samples: Sequence[TrainingSample]) -> "SampleProfile":
        if not samples:
            raise ValueError("cannot profile an empty sample set")
        image_tokens = float(np.mean([s.image_tokens for s in samples]))
        images = float(np.mean([s.num_images for s in samples]))
        return cls(image_tokens=image_tokens, images=images, gen_images=images)


@dataclass
class OrchestrationProblem:
    """One training task to orchestrate.

    Attributes:
        mllm: The multimodal LLM.
        cluster: Target cluster.
        global_batch_size: Samples per optimizer step (``BS``).
        microbatch_size: The paper's constant ``M``.
        frozen: Training-phase freeze configuration.
        profile: Data profile (drives encoder/generator workloads).
        vpp: Virtual-pipeline size for the LLM backbone.
        tp_candidates: TP degrees the algorithm may choose (confined to
            powers of two up to the node size; section 4.3).
        efficiency: Roofline efficiency model for the cost models.
        tp_overlap_fraction: StepCCL overlap applied to TP communication.
        llm_ep: Expert-parallel degree for MoE backbones (1 = dense).
    """

    mllm: MultimodalLLMSpec
    cluster: ClusterSpec
    global_batch_size: int
    microbatch_size: int = 1
    frozen: FrozenConfig = field(default_factory=FrozenConfig)
    profile: SampleProfile = field(default_factory=SampleProfile)
    vpp: int = 1
    tp_candidates: Sequence[int] = (1, 2, 4, 8)
    efficiency: EfficiencyModel = field(
        default_factory=lambda: DEFAULT_EFFICIENCY
    )
    tp_overlap_fraction: float = 0.9
    llm_ep: int = 1

    def __post_init__(self) -> None:
        if self.global_batch_size < 1 or self.microbatch_size < 1:
            raise ValueError("batch sizes must be positive")
        if self.global_batch_size % self.microbatch_size != 0:
            raise ValueError("global batch must divide by microbatch size")
        self._profiler: Optional[PerformanceProfiler] = None

    # ------------------------------------------------------------------ #
    # Workloads
    # ------------------------------------------------------------------ #
    def per_sample_workload(self, module_name: str) -> ModuleWorkload:
        """Average workload one training sample induces on a module."""
        profile = self.profile
        if module_name == "llm":
            return ModuleWorkload(samples=1)
        if module_name == "encoder":
            return ModuleWorkload(
                samples=1,
                image_tokens=max(1, round(profile.image_tokens)),
                images=max(1, round(profile.images)),
            )
        if module_name == "generator":
            gen_tokens = self.mllm.generation_image_tokens
            images = max(1, round(profile.gen_images))
            return ModuleWorkload(
                samples=1,
                image_tokens=images * gen_tokens,
                images=images,
            )
        raise KeyError(f"unknown module {module_name!r}")

    # ------------------------------------------------------------------ #
    # Cost models and profiler
    # ------------------------------------------------------------------ #
    def cost_models(self) -> Dict[str, ModuleCostModel]:
        node = self.cluster.node
        return {
            name: ModuleCostModel(
                module=self.mllm.module(name),
                node=node,
                efficiency=self.efficiency,
                tp_overlap_fraction=self.tp_overlap_fraction,
                ep=self.llm_ep if name == "llm" else 1,
            )
            for name in MODULE_NAMES
        }

    def profiler(self) -> PerformanceProfiler:
        """Build (once) and return the profiled time functions.

        Profilers are shared process-wide: the trial grid is a pure
        function of the model, node hardware, and data profile, and
        elastic re-planning builds hundreds of otherwise-identical
        problems that differ only in cluster *size* (which the profiler
        never reads).
        """
        if self._profiler is None:
            self._profiler = PROFILER_CACHE.get_or_compute(
                self._profiler_key(), self._build_profiler
            )
        return self._profiler

    def _build_profiler(self) -> PerformanceProfiler:
        profiler = PerformanceProfiler(
            cost_models=self.cost_models(),
            tp_candidates=tuple(self.tp_candidates),
        )
        enc = self.per_sample_workload("encoder")
        gen = self.per_sample_workload("generator")
        profiler.profile(
            max_units={
                "llm": 4.0 * self.microbatch_size,
                "encoder": 4.0 * enc.image_tokens * self.microbatch_size,
                "generator": 4.0 * gen.image_tokens * self.microbatch_size,
            },
            images_hint=max(1, round(self.profile.images)),
        )
        return profiler

    def _profiler_key(self):
        """Process-wide profiler cache key.

        Specs are frozen dataclasses; their reprs are contentful and
        deterministic, and stay hashable even when a nested field (e.g.
        an efficiency table dict) is not.
        """
        return (
            repr(self.mllm),
            repr(self.cluster.node),
            tuple(self.tp_candidates),
            repr(self.efficiency),
            self.tp_overlap_fraction,
            self.llm_ep,
            self.microbatch_size,
            repr(self.profile),
        )

    @property
    def num_gpus(self) -> int:
        return self.cluster.num_gpus
