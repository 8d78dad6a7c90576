"""Cluster substrate: GPU, node, and cluster specifications.

This package models the hardware the paper's production cluster provides:
NVIDIA Ampere GPUs (8 per node) connected by 300 GB/s bidirectional NVLink
inside a node and a 4x200 Gbps RoCEv2 rail-optimized fabric across nodes.
DistTrain's algorithms consume only the scalar capabilities modeled here
(peak FLOPs, memory capacity, link bandwidths), so these specs are a faithful
substitute for the physical testbed.
"""

from repro.cluster.gpu import (
    GPUSpec,
    AMPERE_A100_80G,
    AMPERE_A100_40G,
    L20,
    GPU_PRESETS,
)
from repro.cluster.node import NodeSpec, AMPERE_NODE, L20_NODE, NODE_PRESETS
from repro.cluster.interconnect import LinkSpec, NVLINK_300, ROCE_4X200, PCIE_GEN4
from repro.cluster.cluster import ClusterSpec, NodePool, make_cluster, resized_cluster
from repro.cluster.allocation import AllocationError, GPUAllocator

__all__ = [
    "GPUSpec",
    "AMPERE_A100_80G",
    "AMPERE_A100_40G",
    "L20",
    "GPU_PRESETS",
    "NodeSpec",
    "AMPERE_NODE",
    "L20_NODE",
    "NODE_PRESETS",
    "LinkSpec",
    "NVLINK_300",
    "ROCE_4X200",
    "PCIE_GEN4",
    "ClusterSpec",
    "NodePool",
    "resized_cluster",
    "AllocationError",
    "GPUAllocator",
    "make_cluster",
]
