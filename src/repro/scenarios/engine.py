"""Trace-driven simulation of one long run under cluster dynamics.

:func:`run_scenario` runs one job on the per-job state machine,
:class:`repro.fleet.job.JobSimulator`: the job is granted the config's
entire cluster, walked to completion on its own clock, and its
:class:`~repro.scenarios.result.ScenarioResult` returned. The state
machine itself — batched kernel pricing, prepared-batch memoization per
cluster size, asynchronous-checkpoint stalls, durable-checkpoint
rollback, straggler rank slowdowns, elastic re-orchestration through
the process-wide plan cache — lives in :mod:`repro.fleet.job`, where
the multi-tenant :class:`~repro.fleet.engine.FleetEngine` drives many
instances of it on one shared event clock.

It is the one multi-iteration timeline: :func:`repro.core.api.simulate_run`,
:meth:`repro.runtime.manager.DistTrainManager.run` and the
fault-tolerance ablation are its zero-event and sampled-failure runs.
With no events and ``sample_iterations = num_iterations`` it prices
every iteration's own fresh batch exactly as a per-iteration
``simulate`` loop does, hex for hex (pinned by the test suite).
"""

from __future__ import annotations

from typing import Optional

from repro.core.config import DistTrainConfig
from repro.obs import instrument as obs
from repro.fleet.job import JobSimulator
from repro.runtime.checkpoint import CheckpointConfig
from repro.scenarios.result import ScenarioResult
from repro.scenarios.spec import ScenarioSpec


def run_scenario(
    config: DistTrainConfig,
    scenario: ScenarioSpec,
    checkpoint: Optional[CheckpointConfig] = None,
    cpu_nodes: int = 8,
) -> ScenarioResult:
    """Simulate one training task under a :class:`ScenarioSpec`, on the
    whole configured cluster, inside one ``scenario.run`` span.

    Args:
        config: The training task.
        scenario: The cluster dynamics to inject.
        checkpoint: Optional checkpoint policy overriding the default
            built from ``scenario.checkpoint_interval`` — e.g. the
            policy a :class:`~repro.runtime.manager.DistTrainManager`
            was constructed with.
        cpu_nodes: The disaggregated preprocessing pool every cluster
            size's iteration simulator prices (the pool a manager's
            initializer sized).
    """
    with obs.span(
        "scenario.run",
        model=config.mllm.name,
        gpus=config.cluster.num_gpus,
        iterations=scenario.num_iterations,
    ):
        return JobSimulator(
            config, scenario, checkpoint=checkpoint, cpu_nodes=cpu_nodes
        ).run()
