"""Co-located preprocessing (Megatron-LM's monolithic mode).

Preprocessing runs on the training node's own CPUs, inside the data
loader of the training process. Two effects put it on the critical path:

* the training process itself needs host cores (communication threads,
  pinned-memory copies, the Python runtime), so only a fraction of the
  node's cores preprocess;
* dataloader prefetch can hide part of the cost behind GPU compute, but
  an image-heavy batch whose CPU time exceeds the iteration's GPU time
  stalls the GPUs for the difference — the "seconds" bars of Figure 17.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.cluster.node import NodeSpec
from repro.data.sample import BatchColumns
from repro.preprocessing.cost import PreprocessCostModel


@dataclass(frozen=True)
class CoLocatedPreprocessing:
    """Per-iteration preprocessing overhead in the co-located setup.

    Attributes:
        node: Training node (supplies the CPU cores).
        cost: CPU cost model.
        dataloader_workers: Cores the data loader may use (Megatron
            defaults to a handful per rank; the rest serve the training
            process).
        overlap_fraction: Fraction of preprocessing hidden behind the
            previous iteration's GPU compute by prefetching.
    """

    node: NodeSpec
    cost: PreprocessCostModel
    dataloader_workers: int = 16
    overlap_fraction: float = 0.3

    def __post_init__(self) -> None:
        if self.dataloader_workers < 1:
            raise ValueError("need at least one dataloader worker")
        if not 0.0 <= self.overlap_fraction < 1.0:
            raise ValueError("overlap_fraction must be in [0, 1)")

    def cpu_seconds(self, columns: BatchColumns) -> float:
        """Wall-clock CPU time to preprocess a batch on this node."""
        total = self.cost.batch_cpu_seconds(columns)
        return total / self.dataloader_workers

    def exposed_overhead(
        self,
        columns: BatchColumns,
        gpu_iteration_time: float = 0.0,
    ) -> float:
        """Preprocessing time landing on the iteration critical path."""
        wall = self.cpu_seconds(columns)
        hidden = self.overlap_fraction * min(wall, gpu_iteration_time)
        return max(0.0, wall - hidden)
