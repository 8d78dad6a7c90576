"""Event-driven producer/consumer simulation of the preprocessing service.

While :mod:`repro.preprocessing.disaggregated` gives the steady-state
overhead, this module simulates the actual queue dynamics across many
iterations: producers fill a bounded prefetch queue; the trainer pops one
global batch per iteration; stalls happen when the queue runs dry (e.g.
a burst of image-heavy batches exceeding producer throughput).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Deque, List, Sequence

from repro.data.sample import TrainingSample
from repro.numerics import fold_sum
from repro.preprocessing.cost import PreprocessCostModel
from repro.preprocessing.transfer import TransferModel


@dataclass
class IterationFeed:
    """Outcome of feeding one training iteration."""

    iteration: int
    ready_time: float
    stall: float
    transfer: float


@dataclass
class PreprocessingService:
    """Bounded-queue producer/consumer simulation.

    Attributes:
        cost: CPU cost model.
        transfer: Network transfer model.
        total_cores: Aggregate producer cores.
        queue_depth: Global batches the prefetch queue may hold.
    """

    cost: PreprocessCostModel
    transfer: TransferModel
    total_cores: int = 384
    queue_depth: int = 2

    def __post_init__(self) -> None:
        if self.total_cores < 1:
            raise ValueError("total_cores must be positive")
        if self.queue_depth < 1:
            raise ValueError("queue_depth must be positive")

    def simulate(
        self,
        batches: Sequence[Sequence[TrainingSample]],
        gpu_iteration_time: float,
    ) -> List[IterationFeed]:
        """Run training over ``batches`` and record stalls.

        Producers work ahead subject to the queue bound; the trainer
        consumes one batch per iteration taking ``gpu_iteration_time``
        plus any stall plus the first-microbatch transfer.
        """
        if gpu_iteration_time <= 0:
            raise ValueError("gpu_iteration_time must be positive")
        # Completion times of batches the producers have finished.
        ready: Deque[float] = deque()
        producer_clock = 0.0
        produced = 0
        trainer_clock = 0.0
        feeds: List[IterationFeed] = []

        def produce_until(now: float) -> None:
            """Let producers run (ahead) while queue has room."""
            nonlocal producer_clock, produced
            while produced < len(batches) and len(ready) < self.queue_depth:
                batch = batches[produced]
                duration = (
                    self.cost.batch_cpu_seconds(batch) / self.total_cores
                )
                start = max(producer_clock, 0.0)
                finish = start + duration
                # Only produce work the producer could have started by now
                # or is already committed to (queue has room).
                producer_clock = finish
                ready.append(finish)
                produced += 1
                if finish > now and len(ready) >= self.queue_depth:
                    break

        for i, batch in enumerate(batches):
            produce_until(trainer_clock)
            batch_ready = ready.popleft()
            stall = max(0.0, batch_ready - trainer_clock)
            xfer = self.transfer.microbatch_transfer_time(batch[:1])
            trainer_clock += stall + xfer + gpu_iteration_time
            feeds.append(
                IterationFeed(
                    iteration=i,
                    ready_time=batch_ready,
                    stall=stall,
                    transfer=xfer,
                )
            )
        return feeds

    @staticmethod
    def total_stall(feeds: Sequence[IterationFeed]) -> float:
        return fold_sum(f.stall for f in feeds)

    @staticmethod
    def mean_overhead(feeds: Sequence[IterationFeed]) -> float:
        if not feeds:
            return 0.0
        return fold_sum(f.stall + f.transfer for f in feeds) / len(feeds)
