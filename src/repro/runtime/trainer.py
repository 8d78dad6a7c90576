"""Multi-iteration training runs.

:class:`TrainingRun` drives the full DistTrain runtime loop (section 3):
the preprocessing service feeds reordered global batches; each iteration
runs through the iteration simulator; asynchronous checkpoints overlay
the timeline. The result aggregates the paper's headline metrics over
the run. Failures and elastic resizes are the scenario engine's
(:mod:`repro.scenarios`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from repro.data.synthetic import SyntheticMultimodalDataset
from repro.runtime.checkpoint import AsyncCheckpointer, CheckpointConfig
from repro.runtime.iteration import IterationResult, TrainingIterationSimulator


def build_checkpointer(
    plan, config: Optional[CheckpointConfig]
) -> Optional[AsyncCheckpointer]:
    """Size an :class:`AsyncCheckpointer` for an orchestration plan.

    The checkpoint state is the full model + optimizer (bf16 weights,
    fp32 optimizer state); the snapshot stall is driven by the largest
    per-GPU shard, which the LLM unit holds. Shared by
    :class:`TrainingRun` and the scenario engine so both price identical
    stalls for the same plan.
    """
    if config is None:
        return None
    params = plan.mllm.param_count()
    state_bytes = params * (2.0 + 12.0)  # bf16 weights + fp32 optim
    llm_plan = plan.plans["llm"]
    per_gpu = (
        plan.mllm.llm.param_count()
        / (llm_plan.tp * llm_plan.pp)
        * (2.0 + 12.0 / llm_plan.dp)
    )
    return AsyncCheckpointer(
        config=config,
        state_bytes=state_bytes,
        per_gpu_state_bytes=per_gpu,
    )


@dataclass
class TrainingRunResult:
    """Aggregated outcome of a multi-iteration run."""

    iterations: List[IterationResult]
    checkpoint_stall: float

    @property
    def mean_iteration_time(self) -> float:
        return float(np.mean([r.iteration_time for r in self.iterations]))

    @property
    def mean_mfu(self) -> float:
        return float(np.mean([r.mfu for r in self.iterations]))

    @property
    def mean_throughput(self) -> float:
        return float(
            np.mean([r.throughput_tokens_per_s for r in self.iterations])
        )

    @property
    def mean_bubble_fraction(self) -> float:
        return float(np.mean([r.bubble_fraction for r in self.iterations]))

    def summary(self) -> dict:
        return {
            "iterations": len(self.iterations),
            "mean_iteration_time_s": self.mean_iteration_time,
            "mean_mfu": self.mean_mfu,
            "mean_throughput_tokens_per_s": self.mean_throughput,
            "mean_bubble_fraction": self.mean_bubble_fraction,
            "checkpoint_stall_s": self.checkpoint_stall,
        }


@dataclass
class TrainingRun:
    """A simulated training job.

    Attributes:
        simulator: Configured iteration simulator (plan + reordering +
            preprocessing mode).
        dataset: Training data stream.
        global_batch_size: Samples per iteration.
        num_iterations: Iterations to run.
        checkpoint: Optional checkpoint policy.
    """

    simulator: TrainingIterationSimulator
    dataset: SyntheticMultimodalDataset
    global_batch_size: int
    num_iterations: int = 4
    checkpoint: Optional[CheckpointConfig] = None

    def run(self) -> TrainingRunResult:
        if self.num_iterations < 1:
            raise ValueError("num_iterations must be >= 1")
        results: List[IterationResult] = []
        checkpointer = self._build_checkpointer()
        clock = 0.0
        for i in range(self.num_iterations):
            batch = self.dataset.take(self.global_batch_size)
            result = self.simulator.simulate(batch)
            clock += result.iteration_time
            if checkpointer is not None:
                clock += checkpointer.on_iteration(i, clock)
            results.append(result)
        stall = checkpointer.total_stall if checkpointer else 0.0
        return TrainingRunResult(iterations=results, checkpoint_stall=stall)

    def _build_checkpointer(self) -> Optional[AsyncCheckpointer]:
        return build_checkpointer(self.simulator.plan, self.checkpoint)
