"""Test reference for a plain training run: one iteration at a time.

:func:`training_loop` draws a fresh global batch per iteration from the
config's seeded stream, prices it with a full ``simulate``, and lets an
asynchronous checkpointer stall the clock after each iteration. The
scenario engine's zero-event run over the full batch stream
(``sample_iterations = num_iterations``) must equal it hex for hex: it
draws the same batches through ``core.api.sample_batches``, prices them
in one fused sweep, and overlays the same checkpointer.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

import numpy as np

from repro.core.api import dataset
from repro.runtime.checkpoint import CheckpointConfig, build_checkpointer
from repro.runtime.iteration import IterationResult


def training_loop(
    config,
    simulator,
    num_iterations: int,
    checkpoint: Optional[CheckpointConfig] = None,
) -> Tuple[List[IterationResult], float]:
    """``(per-iteration results, total checkpoint stall)``."""
    stream = dataset(config)
    checkpointer = (
        None
        if checkpoint is None
        else build_checkpointer(simulator.plan, checkpoint)
    )
    results = []
    clock = 0.0
    for i in range(num_iterations):
        result = simulator.simulate(stream.take(config.global_batch_size))
        clock += result.iteration_time
        if checkpointer is not None:
            clock += checkpointer.on_iteration(i, clock)
        results.append(result)
    stall = checkpointer.total_stall if checkpointer is not None else 0.0
    return results, stall


def hex_loop(results: List[IterationResult], stall: float):
    """Iteration times, checkpoint stall and mean MFU of
    :func:`training_loop`, floats by ``float.hex``."""
    return (
        [r.iteration_time.hex() for r in results],
        stall.hex(),
        float(np.mean([r.mfu for r in results])).hex(),
    )


def hex_scenario(result):
    """The same three quantities of a
    :class:`~repro.scenarios.result.ScenarioResult`."""
    return (
        [float(t).hex() for t in result.iteration_times],
        float(result.checkpoint_stall_seconds).hex(),
        float(result.mean_mfu).hex(),
    )
