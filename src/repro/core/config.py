"""Top-level training-task configuration."""

from __future__ import annotations

from dataclasses import dataclass, field, fields, replace
from typing import Optional

from repro.cluster.cluster import ClusterSpec, make_cluster
from repro.data.distributions import DataDistributionConfig, LAION_400M_LIKE
from repro.models.mllm import MLLM_PRESETS, MultimodalLLMSpec
from repro.pipeline.schedules import ScheduleKind
from repro.preprocessing import PREPROCESSING_MODES
from repro.runtime.frozen import FROZEN_PRESETS, FrozenConfig

#: Systems the comparison helpers understand.
KNOWN_SYSTEMS = ("disttrain", "megatron-lm", "distmm*")

#: What each checked field annotation accepts, and how an error names
#: it. A bool is an int to isinstance, but passes only where ``bool`` is
#: named: no count is a bool. A class-typed field takes an instance of
#: its class: a schedule name or a preset name is not one.
_FIELD_TYPES = {
    "int": ((int,), "an integer"),
    "Optional[bool]": ((bool, type(None)), "a boolean or None"),
    **{
        cls.__name__: ((cls,), f"a {cls.__name__}")
        for cls in (MultimodalLLMSpec, ClusterSpec, FrozenConfig,
                    ScheduleKind, DataDistributionConfig)
    },
}


@dataclass(frozen=True)
class DistTrainConfig:
    """Complete description of one training task.

    Attributes:
        mllm: Model to train.
        cluster: Cluster to train on.
        global_batch_size: Samples per optimizer step.
        microbatch_size: The constant ``M`` (1 in the paper's production
            configuration: one packed 8K sequence per microbatch).
        frozen: Training-phase freeze configuration.
        system: ``"disttrain"``, ``"megatron-lm"``, or ``"distmm*"`` —
            selects the orchestrator, reordering, preprocessing mode, and
            StepCCL usage together.
        vpp: Virtual pipeline size for the LLM.
        schedule: Pipeline schedule.
        data_config: Synthetic data distributions.
        data_seed: Dataset seed.
        intra_reordering / inter_reordering: Override DistTrain's
            reordering (both forced off for Megatron-LM).
        preprocessing: Override the preprocessing mode (one of
            :data:`~repro.preprocessing.PREPROCESSING_MODES`); default
            follows the system.
        num_iterations: Iterations for multi-iteration runs.
    """

    mllm: MultimodalLLMSpec
    cluster: ClusterSpec
    global_batch_size: int
    microbatch_size: int = 1
    frozen: FrozenConfig = field(default_factory=FrozenConfig)
    system: str = "disttrain"
    vpp: int = 1
    schedule: ScheduleKind = ScheduleKind.ONE_F_ONE_B
    data_config: DataDistributionConfig = field(
        default_factory=lambda: LAION_400M_LIKE
    )
    data_seed: int = 0
    intra_reordering: Optional[bool] = None
    inter_reordering: Optional[bool] = None
    preprocessing: Optional[str] = None
    num_iterations: int = 2

    def __post_init__(self) -> None:
        if self.system not in KNOWN_SYSTEMS:
            raise ValueError(
                f"unknown system {self.system!r}; expected {KNOWN_SYSTEMS}"
            )
        if self.preprocessing not in (*PREPROCESSING_MODES, None):
            # Unchecked, a typo plans and fails only in simulate.
            raise ValueError(
                f"preprocessing must be one of {PREPROCESSING_MODES} or "
                f"None, got {self.preprocessing!r}"
            )
        # A float batch size fails deep in numpy, a string reordering
        # override is truthy, and a schedule name simulates as 1F1B:
        # check the types first.
        for f in fields(self):
            if f.type in _FIELD_TYPES:
                kinds, expected = _FIELD_TYPES[f.type]
                value = getattr(self, f.name)
                if not isinstance(value, kinds) or (
                    isinstance(value, bool) and bool not in kinds
                ):
                    raise ValueError(
                        f"{f.name} must be {expected}, got {value!r}"
                    )
        for name in ("global_batch_size", "microbatch_size", "vpp",
                     "num_iterations"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1")
        # Virtual stages split the LLM's layers evenly, so no pipeline
        # depth fits a vpp that does not divide them.
        layers = self.mllm.llm.num_layers
        if layers % self.vpp != 0:
            raise ValueError(
                f"vpp={self.vpp} does not divide the {layers} LLM layers "
                f"of {self.mllm.name}"
            )
        if self.global_batch_size % self.microbatch_size != 0:
            raise ValueError("global batch must divide by microbatch size")
        if self.data_seed < 0:
            raise ValueError(f"data_seed must be >= 0, got {self.data_seed}")

    # ------------------------------------------------------------------ #
    # Constructors
    # ------------------------------------------------------------------ #
    @classmethod
    def preset(
        cls,
        mllm_name: str,
        num_gpus: int,
        global_batch_size: int,
        frozen: str = "full",
        **kwargs,
    ) -> "DistTrainConfig":
        """Build a config from preset names.

        Args:
            mllm_name: One of ``mllm-9b``, ``mllm-15b``, ``mllm-72b``.
            num_gpus: Cluster size (multiple of 8).
            global_batch_size: Samples per iteration.
            frozen: A :data:`FROZEN_PRESETS` key.
        """
        if mllm_name not in MLLM_PRESETS:
            raise KeyError(
                f"unknown model {mllm_name!r}; options: "
                f"{sorted(MLLM_PRESETS)}"
            )
        if frozen not in FROZEN_PRESETS:
            raise KeyError(
                f"unknown frozen preset {frozen!r}; options: "
                f"{sorted(FROZEN_PRESETS)}"
            )
        return cls(
            mllm=MLLM_PRESETS[mllm_name],
            cluster=make_cluster(num_gpus),
            global_batch_size=global_batch_size,
            frozen=FROZEN_PRESETS[frozen],
            **kwargs,
        )

    # ------------------------------------------------------------------ #
    # Derived settings
    # ------------------------------------------------------------------ #
    @property
    def effective_intra_reordering(self) -> bool:
        if self.intra_reordering is not None:
            return self.intra_reordering
        return self.system != "megatron-lm"

    @property
    def effective_inter_reordering(self) -> bool:
        if self.inter_reordering is not None:
            return self.inter_reordering
        return self.system != "megatron-lm"

    @property
    def effective_preprocessing(self) -> str:
        if self.preprocessing is not None:
            return self.preprocessing
        return "colocated" if self.system == "megatron-lm" else "disaggregated"

    @property
    def tp_overlap_fraction(self) -> float:
        """StepCCL hides most TP communication for DistTrain/DistMM*."""
        return 0.0 if self.system == "megatron-lm" else 0.9

    def with_system(self, system: str) -> "DistTrainConfig":
        """The same task under a different training system."""
        return replace(self, system=system)

    def with_(self, **kwargs) -> "DistTrainConfig":
        return replace(self, **kwargs)
