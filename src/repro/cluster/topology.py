"""Cluster topology and rank placement.

Rank placement decides which physical GPU each logical rank of a
parallelism unit occupies. DistTrain (like Megatron-LM) places tensor-
parallel groups inside a node so TP collectives ride NVLink, while
pipeline- and data-parallel communication crosses the RoCE fabric.

The topology is also exposed as a catalog of :class:`FailureDomain`
blast radii (nodes, racks) that correlated fault events target by name.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

from repro.cluster.cluster import ClusterSpec
from repro.cluster.interconnect import LinkSpec

#: Default rack granularity used when a cluster spec does not say
#: otherwise: racks are consecutive blocks of this many nodes per pool.
DEFAULT_NODES_PER_RACK = 4


@dataclass(frozen=True)
class FailureDomain:
    """A named blast radius: the GPUs that die together.

    Attributes:
        name: Stable handle events reference (``"node3"``, ``"rack1"``).
        scope: ``"node"`` or ``"rack"``.
        node_indices: Flat node indices the domain covers.
        num_gpus: Total GPUs inside the domain.
    """

    name: str
    scope: str
    node_indices: Tuple[int, ...]
    num_gpus: int

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("failure domain needs a name")
        if self.scope not in ("node", "rack"):
            raise ValueError(f"unknown failure-domain scope {self.scope!r}")
        if not self.node_indices:
            raise ValueError("failure domain must cover at least one node")
        if self.num_gpus < 1:
            raise ValueError("failure domain must hold at least one GPU")


@dataclass(frozen=True)
class RankPlacement:
    """Assignment of a contiguous block of physical GPUs to a unit.

    Attributes:
        unit_name: Which parallelism unit these GPUs serve.
        gpu_offset: First flat GPU index of the block.
        num_gpus: Block size.
    """

    unit_name: str
    gpu_offset: int
    num_gpus: int

    def __post_init__(self) -> None:
        if self.gpu_offset < 0:
            raise ValueError("gpu_offset must be non-negative")
        if self.num_gpus <= 0:
            raise ValueError("num_gpus must be positive")

    @property
    def gpu_indices(self) -> range:
        return range(self.gpu_offset, self.gpu_offset + self.num_gpus)


class ClusterTopology:
    """Physical topology view over a :class:`ClusterSpec`.

    Provides link selection between GPU pairs and contiguous block
    allocation for parallelism units.
    """

    def __init__(self, cluster: ClusterSpec):
        self.cluster = cluster
        self._next_free_gpu = 0
        self._placements: List[RankPlacement] = []

    # ------------------------------------------------------------------ #
    # Allocation
    # ------------------------------------------------------------------ #
    def allocate(self, unit_name: str, num_gpus: int) -> RankPlacement:
        """Reserve the next ``num_gpus`` GPUs for ``unit_name``.

        Raises:
            RuntimeError: if the cluster is out of GPUs.
        """
        if num_gpus <= 0:
            raise ValueError("num_gpus must be positive")
        if self._next_free_gpu + num_gpus > self.cluster.num_gpus:
            raise RuntimeError(
                f"cannot allocate {num_gpus} GPUs for {unit_name!r}: only "
                f"{self.cluster.num_gpus - self._next_free_gpu} free of "
                f"{self.cluster.num_gpus}"
            )
        placement = RankPlacement(unit_name, self._next_free_gpu, num_gpus)
        self._next_free_gpu += num_gpus
        self._placements.append(placement)
        return placement

    def reset(self) -> None:
        """Release all allocations."""
        self._next_free_gpu = 0
        self._placements = []

    @property
    def placements(self) -> Sequence[RankPlacement]:
        return tuple(self._placements)

    @property
    def free_gpus(self) -> int:
        return self.cluster.num_gpus - self._next_free_gpu

    # ------------------------------------------------------------------ #
    # Link selection
    # ------------------------------------------------------------------ #
    def link_between(self, gpu_a: int, gpu_b: int) -> LinkSpec:
        """The link used for traffic between two flat GPU indices."""
        node_spec, _ = self.cluster.node_of_gpu(gpu_a)
        if self.cluster.same_node(gpu_a, gpu_b):
            return node_spec.intra_link
        return node_spec.inter_link

    def group_link(self, gpu_indices: Sequence[int]) -> LinkSpec:
        """The bottleneck link of a communication group.

        If any pair of members crosses node boundaries, the whole
        collective is bottlenecked by the slowest member's inter-node
        fabric — a group spanning pools with different NICs runs at the
        slower pool's effective bandwidth, not the first member's.
        """
        if not gpu_indices:
            raise ValueError("empty communication group")
        first = gpu_indices[0]
        node_specs = [self.cluster.node_of_gpu(first)[0]]
        crosses_nodes = False
        for gpu in gpu_indices[1:]:
            node_specs.append(self.cluster.node_of_gpu(gpu)[0])
            if not self.cluster.same_node(first, gpu):
                crosses_nodes = True
        if crosses_nodes:
            return min(
                (spec.inter_link for spec in node_specs),
                key=lambda link: link.effective_bandwidth,
            )
        return node_specs[0].intra_link

    # ------------------------------------------------------------------ #
    # Failure domains
    # ------------------------------------------------------------------ #
    def failure_domains(
        self, nodes_per_rack: int = DEFAULT_NODES_PER_RACK
    ) -> Dict[str, FailureDomain]:
        """Named blast radii correlated fault events can target.

        Every physical node is a ``node{i}`` domain; consecutive nodes
        within a pool are grouped into ``rack{j}`` domains of up to
        ``nodes_per_rack`` nodes (racks never span pools — they share a
        power/switch boundary, not just an index range). Domain names
        are stable for a given cluster shape, so a trace recorded
        against one slice replays against any same-shape slice.
        """
        if nodes_per_rack < 1:
            raise ValueError("nodes_per_rack must be >= 1")
        domains: Dict[str, FailureDomain] = {}
        node_index = 0
        rack_index = 0
        for pool in self.cluster.pools:
            pool_nodes = []
            for _ in range(pool.num_nodes):
                name = f"node{node_index}"
                domains[name] = FailureDomain(
                    name=name,
                    scope="node",
                    node_indices=(node_index,),
                    num_gpus=pool.node.gpus_per_node,
                )
                pool_nodes.append(node_index)
                node_index += 1
            for start in range(0, len(pool_nodes), nodes_per_rack):
                members = tuple(pool_nodes[start : start + nodes_per_rack])
                name = f"rack{rack_index}"
                domains[name] = FailureDomain(
                    name=name,
                    scope="rack",
                    node_indices=members,
                    num_gpus=len(members) * pool.node.gpus_per_node,
                )
                rack_index += 1
        return domains
