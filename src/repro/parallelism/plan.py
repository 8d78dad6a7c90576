"""Parallelism plan for one module.

A :class:`ParallelismPlan` fixes the tensor-, pipeline-, and data-parallel
degrees of one parallelism unit (plus optional virtual-pipeline, sequence-
parallel, and expert-parallel settings), and knows how many GPUs the unit
consumes: ``tp * pp * dp``.

Replication of small modules (the paper replicates ViT and SD across the
GPUs of a TP group rather than tensor-parallelizing them; section 7.1) is
expressed as ``tp=1`` with a larger ``dp``.
"""

from __future__ import annotations

from dataclasses import dataclass, fields, replace


@dataclass(frozen=True)
class ParallelismPlan:
    """Distributed-training configuration of one parallelism unit.

    Attributes:
        tp: Tensor-parallel size (GPUs splitting each layer).
        pp: Pipeline-parallel size (stages the module is cut into).
        dp: Data-parallel size (independent replicas).
        vpp: Virtual-pipeline (interleaved 1F1B) chunks per PP stage.
        sp: Sequence-parallel degree inside the TP group (LLM only).
        ep: Expert-parallel size for MoE backbones; the orchestration
            formulation treats EP like TP (section 4.1). EP is an
            additional intra-layer dimension: when it replaces TP the
            plan carries ``tp=1, ep=w``.
        microbatch_size: Samples per microbatch (the paper's ``M``).
    """

    tp: int = 1
    pp: int = 1
    dp: int = 1
    vpp: int = 1
    sp: int = 1
    ep: int = 1
    microbatch_size: int = 1

    def __post_init__(self) -> None:
        for f in fields(self):
            value = getattr(self, f.name)
            # A bool is an int to isinstance, but no degree.
            integer = isinstance(value, int) and not isinstance(value, bool)
            if not integer or value < 1:
                raise ValueError(
                    f"{f.name} must be a positive integer, got {value!r}"
                )
        if self.sp > 1 and self.sp != self.tp:
            raise ValueError(
                "sequence parallelism reuses the TP group; sp must equal tp"
            )

    @property
    def intra_layer_width(self) -> int:
        """GPUs cooperating within one layer (TP times EP)."""
        return self.tp * self.ep

    @property
    def num_gpus(self) -> int:
        """GPUs consumed by this unit."""
        return self.intra_layer_width * self.pp * self.dp

    def with_(self, **kwargs) -> "ParallelismPlan":
        """Functional update."""
        return replace(self, **kwargs)

    def validate_against(self, num_layers: int, global_batch_size: int) -> None:
        """Check the plan is executable for a concrete module/job.

        Raises:
            ValueError: if layers cannot be split into PP*VPP stages, or
                the global batch does not divide across DP * microbatch.
        """
        chunks = self.pp * self.vpp
        if num_layers < chunks:
            raise ValueError(
                f"cannot split {num_layers} layers into {chunks} "
                f"pipeline chunks (pp={self.pp}, vpp={self.vpp})"
            )
        per_dp = self.dp * self.microbatch_size
        if global_batch_size % per_dp != 0:
            raise ValueError(
                f"global batch {global_batch_size} not divisible by "
                f"dp*microbatch = {per_dp}"
            )

    def num_microbatches(self, global_batch_size: int) -> int:
        """Microbatches per iteration: ``BS / (DP * M)`` (section 4.2)."""
        per_dp = self.dp * self.microbatch_size
        if global_batch_size % per_dp != 0:
            raise ValueError(
                f"global batch {global_batch_size} not divisible by {per_dp}"
            )
        return global_batch_size // per_dp

    def describe(self) -> str:
        parts = [f"TP={self.tp}", f"PP={self.pp}", f"DP={self.dp}"]
        if self.vpp > 1:
            parts.append(f"VPP={self.vpp}")
        if self.sp > 1:
            parts.append(f"SP={self.sp}")
        if self.ep > 1:
            parts.append(f"EP={self.ep}")
        return " ".join(parts) + f" ({self.num_gpus} GPUs)"
