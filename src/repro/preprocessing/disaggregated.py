"""Disaggregated preprocessing (DistTrain's producer/consumer model).

Dedicated CPU nodes fetch raw data from the distributed file system,
preprocess and reorder it asynchronously, and push ready tensors to the
GPU nodes over RPC/RDMA. In steady state the GPU side only pays the
receive cost (milliseconds); the producer pool is sized elastically so
its aggregate throughput covers the training consumption rate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.data.sample import BatchColumns
from repro.preprocessing.cost import PreprocessCostModel
from repro.preprocessing.transfer import TransferModel


@dataclass(frozen=True)
class DisaggregatedPreprocessing:
    """Steady-state model of the disaggregated preprocessing service.

    Attributes:
        cost: CPU cost model (runs on the producer nodes).
        transfer: Network model for shipping preprocessed tensors.
        cpu_nodes: Dedicated preprocessing nodes.
        cores_per_node: Usable cores per node.
        reorder_cost_fraction: Extra CPU spent on the two-level
            reordering, as a fraction of base preprocessing cost (it runs
            on the producers, off the training critical path).
    """

    cost: PreprocessCostModel
    transfer: TransferModel
    cpu_nodes: int = 4
    cores_per_node: int = 96
    reorder_cost_fraction: float = 0.02

    def __post_init__(self) -> None:
        if self.cpu_nodes < 1 or self.cores_per_node < 1:
            raise ValueError("need at least one preprocessing node/core")

    @property
    def total_cores(self) -> int:
        return self.cpu_nodes * self.cores_per_node

    # ------------------------------------------------------------------ #
    # Throughput
    # ------------------------------------------------------------------ #
    def producer_seconds(self, columns: BatchColumns) -> float:
        """Wall-clock time the producer pool needs for a batch."""
        total = self.cost.batch_cpu_seconds(columns)
        total *= 1.0 + self.reorder_cost_fraction
        return total / self.total_cores

    # ------------------------------------------------------------------ #
    # Exposed overhead on the GPU side
    # ------------------------------------------------------------------ #
    def exposed_overhead(
        self,
        columns: BatchColumns,
        iteration_time: float,
    ) -> float:
        """Per-iteration overhead visible to the GPU trainers.

        In steady state only the (pipelined) receive of the first
        microbatch is exposed; if the producers cannot keep up, the
        deficit stalls training.
        """
        receive = self.transfer.microbatch_transfer_time(columns[:1])
        deficit = max(0.0, self.producer_seconds(columns) - iteration_time)
        return receive + deficit


def required_cpu_nodes(
    cost: PreprocessCostModel,
    columns: BatchColumns,
    iteration_time: float,
    cores_per_node: int = 96,
    headroom: float = 1.2,
) -> int:
    """Elastically size the producer pool for a workload.

    Returns the minimum number of CPU nodes whose aggregate throughput
    covers one global batch per iteration, with ``headroom`` slack.
    """
    if iteration_time <= 0:
        raise ValueError("iteration_time must be positive")
    total_cpu = cost.batch_cpu_seconds(columns) * headroom
    cores_needed = total_cpu / iteration_time
    return max(1, math.ceil(cores_needed / cores_per_node))
