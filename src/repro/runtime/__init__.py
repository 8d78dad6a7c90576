"""End-to-end training runtime simulation.

Ties everything together: a :class:`TrainingIterationSimulator` builds
per-stage, per-microbatch durations from the cost models and an
orchestration plan, runs the pipeline simulator per DP rank, adds
gradient synchronization and preprocessing overheads, and reports
iteration time, MFU, and token throughput — the quantities in Figures
13-19. Also prices asynchronous checkpoints (section 3, "DistTrain
runtime"). Multi-iteration runs — checkpoint stalls overlaid on the
iterations, failure recovery from the latest durable checkpoint — walk
one timeline, the scenario engine's (:mod:`repro.scenarios`).
"""

from repro.runtime.frozen import FrozenConfig, FROZEN_PRESETS
from repro.runtime.mfu import ModelFlopsAccountant, mfu, token_throughput
from repro.runtime.iteration import (
    IterationResult,
    TrainingIterationSimulator,
)
from repro.runtime.checkpoint import AsyncCheckpointer, CheckpointConfig

__all__ = [
    "FrozenConfig",
    "FROZEN_PRESETS",
    "ModelFlopsAccountant",
    "mfu",
    "token_throughput",
    "IterationResult",
    "TrainingIterationSimulator",
    "AsyncCheckpointer",
    "CheckpointConfig",
]
