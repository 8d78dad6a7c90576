"""Cluster specifications.

A :class:`ClusterSpec` is a collection of :class:`NodePool` objects; a pool
is a homogeneous set of nodes. Most experiments use a single Ampere pool
(matching the paper's production cluster), while the heterogeneous-hardware
case study (section 8) adds an L20 pool for the modality encoder.

The cluster also carries the dedicated CPU preprocessing nodes used by
disaggregated data preprocessing; they host no GPUs and are tracked
separately from the GPU pools.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

from repro.cluster.gpu import GPUSpec
from repro.cluster.node import NodeSpec, AMPERE_NODE


@dataclass(frozen=True)
class NodePool:
    """A homogeneous group of nodes.

    Attributes:
        node: The node type.
        num_nodes: How many identical nodes this pool contains.
        name: Optional pool label (defaults to the node name).
    """

    node: NodeSpec
    num_nodes: int
    name: str = ""

    def __post_init__(self) -> None:
        if self.num_nodes <= 0:
            raise ValueError("num_nodes must be positive")
        if not self.name:
            object.__setattr__(self, "name", self.node.name)

    @property
    def num_gpus(self) -> int:
        return self.num_nodes * self.node.gpus_per_node


@dataclass(frozen=True)
class ClusterSpec:
    """A training cluster: GPU pools plus CPU preprocessing nodes.

    Attributes:
        pools: GPU node pools, ordered. Rank placement fills pools in order.
        cpu_nodes: Number of dedicated CPU-only preprocessing nodes.
        cpu_cores_per_node: Cores per preprocessing node.
        name: Cluster label for reports.
    """

    pools: Tuple[NodePool, ...]
    cpu_nodes: int = 4
    cpu_cores_per_node: int = 96
    name: str = "cluster"

    def __post_init__(self) -> None:
        if not self.pools:
            raise ValueError("cluster needs at least one GPU pool")
        if self.cpu_nodes < 0:
            raise ValueError("cpu_nodes must be non-negative")

    # ------------------------------------------------------------------ #
    # Aggregates
    # ------------------------------------------------------------------ #
    @property
    def num_gpus(self) -> int:
        """Total GPUs across all pools."""
        return sum(pool.num_gpus for pool in self.pools)

    @property
    def num_nodes(self) -> int:
        return sum(pool.num_nodes for pool in self.pools)

    @property
    def primary_pool(self) -> NodePool:
        """The first (usually only) pool."""
        return self.pools[0]

    @property
    def node(self) -> NodeSpec:
        """Node type of the primary pool (homogeneous-cluster shortcut)."""
        return self.primary_pool.node

    @property
    def gpu(self) -> GPUSpec:
        """GPU type of the primary pool."""
        return self.node.gpu

    @property
    def gpus_per_node(self) -> int:
        return self.node.gpus_per_node

    @property
    def is_homogeneous(self) -> bool:
        return len(self.pools) == 1

    @property
    def total_peak_flops(self) -> float:
        """Aggregate bf16 peak FLOP/s across the cluster."""
        return sum(
            pool.num_nodes * pool.node.total_peak_flops for pool in self.pools
        )


def resized_cluster(cluster: ClusterSpec, num_gpus: int) -> ClusterSpec:
    """The same cluster with a different GPU count (elastic resize).

    Node type and CPU preprocessing pool carry over; only whole nodes
    can join or leave. Heterogeneous multi-pool clusters cannot be
    resized mechanically — the scheduler would need a placement policy.
    """
    if not cluster.is_homogeneous:
        raise ValueError("cannot mechanically resize a heterogeneous cluster")
    node = cluster.node
    if num_gpus <= 0:
        raise ValueError("num_gpus must be positive")
    if num_gpus % node.gpus_per_node != 0:
        raise ValueError(
            f"num_gpus={num_gpus} is not a multiple of "
            f"gpus_per_node={node.gpus_per_node}"
        )
    num_nodes = num_gpus // node.gpus_per_node
    return ClusterSpec(
        pools=(NodePool(node=node, num_nodes=num_nodes),),
        cpu_nodes=cluster.cpu_nodes,
        cpu_cores_per_node=cluster.cpu_cores_per_node,
        name=f"{node.name}-x{num_nodes}",
    )


def make_cluster(
    num_gpus: int,
    node: NodeSpec = AMPERE_NODE,
    cpu_nodes: int = 4,
    name: Optional[str] = None,
) -> ClusterSpec:
    """Build a homogeneous cluster with ``num_gpus`` GPUs.

    ``num_gpus`` must be a multiple of the node's GPU count; the paper's
    cluster has 8 GPUs per node.
    """
    if num_gpus <= 0:
        raise ValueError("num_gpus must be positive")
    if num_gpus % node.gpus_per_node != 0:
        raise ValueError(
            f"num_gpus={num_gpus} is not a multiple of "
            f"gpus_per_node={node.gpus_per_node}"
        )
    num_nodes = num_gpus // node.gpus_per_node
    return ClusterSpec(
        pools=(NodePool(node=node, num_nodes=num_nodes),),
        cpu_nodes=cpu_nodes,
        name=name or f"{node.name}-x{num_nodes}",
    )
