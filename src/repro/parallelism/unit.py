"""Parallelism units and their communication groups.

A parallelism unit (section 4.1) owns a block of GPUs and materializes the
rank structure inside it: TP groups (contiguous ranks, so they sit inside
one node and communicate over NVLink), DP groups, and PP chains. Each GPU
process has a *local rank* within its unit and a *global rank* in the
cluster — mirroring the paper's implementation where each unit performs
its own distributed initialization.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

from repro.models.base import ModuleSpec
from repro.parallelism.plan import ParallelismPlan


@dataclass(frozen=True)
class CommunicationGroup:
    """One collective-communication group (e.g. a TP group).

    Attributes:
        kind: ``"tp"``, ``"dp"``, or ``"pp"``.
        ranks: Global ranks participating, in ring order.
    """

    kind: str
    ranks: Tuple[int, ...]

    def __post_init__(self) -> None:
        if self.kind not in ("tp", "dp", "pp", "ep", "sp"):
            raise ValueError(f"unknown group kind {self.kind!r}")
        if len(set(self.ranks)) != len(self.ranks):
            raise ValueError("duplicate ranks in communication group")

    @property
    def size(self) -> int:
        return len(self.ranks)


class ParallelismUnit:
    """A module bound to GPUs with its own parallelism configuration.

    Rank layout follows Megatron conventions: TP is the fastest-varying
    dimension, then DP, then PP — so each TP group is a contiguous block
    of ranks that placement keeps inside one node.

    Args:
        name: Unit name (``"encoder"``, ``"llm"``, ``"generator"``).
        module: The module this unit trains.
        plan: Parallelism configuration.
        gpu_offset: First global rank of the unit's contiguous GPU block.
    """

    def __init__(
        self,
        name: str,
        module: ModuleSpec,
        plan: ParallelismPlan,
        gpu_offset: int = 0,
    ):
        if gpu_offset < 0:
            raise ValueError("gpu_offset must be non-negative")
        self.name = name
        self.module = module
        self.plan = plan
        self.gpu_offset = gpu_offset

    # ------------------------------------------------------------------ #
    # Rank arithmetic
    # ------------------------------------------------------------------ #
    @property
    def num_gpus(self) -> int:
        return self.plan.num_gpus

    @property
    def global_ranks(self) -> range:
        return range(self.gpu_offset, self.gpu_offset + self.num_gpus)

    def rank_of(self, pp_stage: int, dp_index: int, tp_index: int) -> int:
        """Global rank at the given parallel coordinates.

        The fastest-varying dimension is the intra-layer width (TP*EP),
        so expert-parallel ranks are laid out like tensor-parallel ones.
        """
        plan = self.plan
        width = plan.intra_layer_width
        if not (0 <= pp_stage < plan.pp and 0 <= dp_index < plan.dp
                and 0 <= tp_index < width):
            raise ValueError("parallel coordinates out of range")
        local = pp_stage * width * plan.dp + dp_index * width + tp_index
        return self.gpu_offset + local

    # ------------------------------------------------------------------ #
    # Communication groups
    # ------------------------------------------------------------------ #
    def tp_groups(self) -> List[CommunicationGroup]:
        """One group per (pp_stage, dp_index): contiguous intra-layer
        (TP*EP) ranks."""
        groups = []
        width = self.plan.intra_layer_width
        for pp in range(self.plan.pp):
            for dp in range(self.plan.dp):
                ranks = tuple(
                    self.rank_of(pp, dp, tp) for tp in range(width)
                )
                groups.append(CommunicationGroup("tp", ranks))
        return groups

    def dp_groups(self) -> List[CommunicationGroup]:
        """One group per (pp_stage, tp_index)."""
        groups = []
        for pp in range(self.plan.pp):
            for tp in range(self.plan.intra_layer_width):
                ranks = tuple(
                    self.rank_of(pp, dp, tp) for dp in range(self.plan.dp)
                )
                groups.append(CommunicationGroup("dp", ranks))
        return groups

    def pp_groups(self) -> List[CommunicationGroup]:
        """One chain per (dp_index, tp_index) across pipeline stages."""
        groups = []
        for dp in range(self.plan.dp):
            for tp in range(self.plan.intra_layer_width):
                ranks = tuple(
                    self.rank_of(pp, dp, tp) for pp in range(self.plan.pp)
                )
                groups.append(CommunicationGroup("pp", ranks))
        return groups

    def all_groups(self) -> List[CommunicationGroup]:
        return self.tp_groups() + self.dp_groups() + self.pp_groups()

    # ------------------------------------------------------------------ #
    # Boundary ranks (for communication brokers)
    # ------------------------------------------------------------------ #
    def first_stage_ranks(self) -> List[int]:
        """Ranks of the first PP stage (one per (dp, tp))."""
        return [
            self.rank_of(0, dp, tp)
            for dp in range(self.plan.dp)
            for tp in range(self.plan.intra_layer_width)
        ]

    def last_stage_ranks(self) -> List[int]:
        return [
            self.rank_of(self.plan.pp - 1, dp, tp)
            for dp in range(self.plan.dp)
            for tp in range(self.plan.intra_layer_width)
        ]

    def describe(self) -> str:
        return (
            f"unit {self.name!r}: {self.module.name}, {self.plan.describe()}, "
            f"ranks [{self.gpu_offset}, {self.gpu_offset + self.num_gpus})"
        )
