"""Trace-driven simulation of one long run under cluster dynamics.

:class:`ScenarioEngine` is the single-job wrapper over the reusable
per-job state machine, :class:`repro.fleet.job.JobSimulator`: the job is
granted the config's entire cluster, walked to completion on its own
clock, and its :class:`~repro.scenarios.result.ScenarioResult` returned.
The state machine itself — batched kernel pricing, prepared-batch
memoization per cluster size, asynchronous-checkpoint stalls,
durable-checkpoint rollback, straggler rank slowdowns, elastic
re-orchestration through the process-wide plan cache — lives in
:mod:`repro.fleet.job`, where the multi-tenant
:class:`~repro.fleet.engine.FleetEngine` drives many instances of it on
one shared event clock.

The extraction is behavior-preserving: the zero-event path stays
hex-identical to :class:`~repro.runtime.trainer.TrainingRun` and the
golden scenario snapshots are unchanged (both are pinned by the test
suite).
"""

from __future__ import annotations

from typing import Optional

from repro.core.config import DistTrainConfig
from repro.obs import instrument as obs
from repro.fleet.job import JobSimulator
from repro.runtime.checkpoint import CheckpointConfig
from repro.scenarios.result import ScenarioResult  # noqa: F401
from repro.scenarios.spec import ScenarioSpec


class ScenarioEngine:
    """Simulates one training task under a :class:`ScenarioSpec`.

    Args:
        config: The training task.
        scenario: The cluster dynamics to inject.
        checkpoint: Optional checkpoint policy overriding the default
            built from ``scenario.checkpoint_interval`` — e.g. the
            policy a :class:`~repro.runtime.manager.DistTrainManager`
            was constructed with.
    """

    def __init__(
        self,
        config: DistTrainConfig,
        scenario: ScenarioSpec,
        checkpoint: Optional[CheckpointConfig] = None,
    ):
        self.config = config
        self.scenario = scenario
        self._job = JobSimulator(config, scenario, checkpoint=checkpoint)
        self.checkpoint = self._job.checkpoint

    def run(self) -> ScenarioResult:
        """Walk the full timeline on the whole configured cluster.

        Repeated calls reuse the per-size plan/batch memo tables, but
        each reports the plan hit/miss counters of a run from cold
        caches: the counters depend on the run alone.
        """
        with obs.span(
            "scenario.run",
            model=self.config.mllm.name,
            gpus=self.config.cluster.num_gpus,
            iterations=self.scenario.num_iterations,
        ):
            return self._job.run()


def run_scenario(
    config: DistTrainConfig, scenario: ScenarioSpec
) -> ScenarioResult:
    """Convenience wrapper: simulate ``config`` under ``scenario``."""
    return ScenarioEngine(config, scenario).run()
