"""Node (server) specifications.

A node groups GPUs behind a shared NVLink fabric and a set of RDMA NICs,
plus host CPU resources. Host CPUs matter for the data-preprocessing study
(section 5.1 / Figure 17): co-located preprocessing contends with the
training process for exactly these cores.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.cluster.gpu import GPUSpec, AMPERE_A100_80G, L20
from repro.cluster.interconnect import LinkSpec, NVLINK_300, ROCE_4X200, intra_node_link


@dataclass(frozen=True)
class NodeSpec:
    """Static description of one server.

    Attributes:
        name: Human-readable name.
        gpu: GPU device installed in this node.
        gpus_per_node: Number of GPUs (8 on the paper's cluster).
        intra_link: Link connecting GPUs inside the node.
        inter_link: Per-GPU share of the cross-node fabric.
        cpu_cores: Host CPU cores available.
        host_memory_bytes: Host DRAM.
        cpu_flops_per_core: Effective per-core throughput used by the
            preprocessing cost model (image decode/resize are CPU-bound).
    """

    name: str
    gpu: GPUSpec = AMPERE_A100_80G
    gpus_per_node: int = 8
    intra_link: LinkSpec = NVLINK_300
    inter_link: LinkSpec = ROCE_4X200
    cpu_cores: int = 128
    host_memory_bytes: float = 2048 * 1024**3
    cpu_flops_per_core: float = 4e9

    def __post_init__(self) -> None:
        if self.gpus_per_node <= 0:
            raise ValueError("gpus_per_node must be positive")
        if self.cpu_cores <= 0:
            raise ValueError("cpu_cores must be positive")

    @property
    def total_peak_flops(self) -> float:
        """Aggregate bf16 peak across the node's GPUs."""
        return self.gpus_per_node * self.gpu.peak("bf16")


AMPERE_NODE = NodeSpec(name="ampere-8xA100", gpu=AMPERE_A100_80G)

L20_NODE = NodeSpec(
    name="l20-8x",
    gpu=L20,
    intra_link=intra_node_link(L20.nvlink_bandwidth),
    cpu_cores=96,
)

# Dedicated CPU-only preprocessing node (disaggregated data preprocessing
# runs on these; section 5.1).
CPU_NODE = NodeSpec(
    name="cpu-preprocess",
    gpu=AMPERE_A100_80G,  # placeholder; gpus_per_node=0 is disallowed, see pools
    gpus_per_node=1,
    cpu_cores=96,
)

NODE_PRESETS = {
    "ampere": AMPERE_NODE,
    "l20": L20_NODE,
}
