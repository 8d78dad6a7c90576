"""DistTrain manager / initializer / runtime flow (section 3, Figure 8).

:class:`DistTrainManager` drives the lifecycle the paper describes on the
:mod:`repro.core.api` entry points every sweep, scenario and fleet uses,
and keeps only what is its own:

1. **manager** — profile the data distribution
   (:func:`~repro.core.api.profile`, the cached 256-sample draw) and
   decide the orchestration (:func:`~repro.core.api.replan` at the
   config's own size, through the process-wide plan cache);
2. **initializer** — materialize the parallelism units (contiguous GPU
   blocks, communication groups), set up the communication brokers
   between adjacent units, run communication warm-up trials to verify
   connectivity, and size the elastic preprocessing pool on the first
   global batch (:func:`~repro.core.api.sample_batches`);
3. **runtime** — walk the training timeline with
   :func:`~repro.scenarios.engine.run_scenario` (the one
   multi-iteration timeline), whose iteration simulators price the
   sized pool: :meth:`DistTrainManager.run` is the zero-event run over
   the full batch stream, with periodic asynchronous checkpoints, and
   :meth:`DistTrainManager.run_scenario` adds cluster dynamics.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.core import api
from repro.core.config import DistTrainConfig
from repro.orchestration.adaptive import OrchestrationResult
from repro.orchestration.problem import SampleProfile
from repro.parallelism.broker import CommunicationBroker, broker_transfer_time
from repro.parallelism.unit import ParallelismUnit
from repro.preprocessing.cost import PreprocessCostModel
from repro.preprocessing.disaggregated import required_cpu_nodes
from repro.runtime.checkpoint import CheckpointConfig


@dataclass
class InitializationReport:
    """What the DistTrain initializer set up."""

    units: Dict[str, ParallelismUnit]
    brokers: Dict[str, List[CommunicationBroker]]
    communication_groups: int
    warmup_trial_seconds: Dict[str, float]
    recommended_cpu_nodes: int

    def describe(self) -> str:
        lines = ["initialization:"]
        for unit in self.units.values():
            lines.append("  " + unit.describe())
        for boundary, brokers in self.brokers.items():
            lines.append(f"  {boundary}: {len(brokers)} broker(s)")
        lines.append(
            f"  {self.communication_groups} communication groups, "
            f"{self.recommended_cpu_nodes} preprocessing CPU node(s)"
        )
        return "\n".join(lines)


class DistTrainManager:
    """End-to-end training lifecycle driver.

    Args:
        config: The training task.
        checkpoint: Optional checkpoint policy for the runtime phase.
    """

    def __init__(
        self,
        config: DistTrainConfig,
        checkpoint: Optional[CheckpointConfig] = None,
    ):
        self.config = config
        self.checkpoint = checkpoint
        self._initialization: Optional[InitializationReport] = None

    # ------------------------------------------------------------------ #
    # Phase 1: manager
    # ------------------------------------------------------------------ #
    def analyze_data(self) -> SampleProfile:
        """Sample the training stream and profile its distribution."""
        return api.profile(self.config)

    def orchestrate(self) -> OrchestrationResult:
        """Run benchmarking trials and decide the orchestration."""
        return api.replan(self.config, self.config.cluster.num_gpus)

    # ------------------------------------------------------------------ #
    # Phase 2: initializer
    # ------------------------------------------------------------------ #
    def initialize(self) -> InitializationReport:
        """Materialize units, brokers, and warm-up trials."""
        if self._initialization is not None:
            return self._initialization
        orchestration = self.orchestrate()
        plan = orchestration.plan
        units = plan.build_units()
        brokers = plan.build_brokers()
        groups = sum(len(u.all_groups()) for u in units.values())

        # Communication warm-up trials: one boundary tensor per pair of
        # adjacent units ("tests connectivity", section 3).
        llm = self.config.mllm.llm
        boundary_bytes = llm.boundary_activation_bytes(
            self.config.microbatch_size
        )
        link = self.config.cluster.node.inter_link
        warmup = {
            boundary: broker_transfer_time(len(bs), boundary_bytes, link)
            for boundary, bs in brokers.items()
        }

        # Elastic preprocessing pool sizing.
        cpu_nodes = required_cpu_nodes(
            PreprocessCostModel(),
            api.sample_batches(self.config)[0].columns,
            max(orchestration.predicted_iteration_time, 1.0),
            cores_per_node=self.config.cluster.cpu_cores_per_node,
        )

        self._initialization = InitializationReport(
            units=units,
            brokers=brokers,
            communication_groups=groups,
            warmup_trial_seconds=warmup,
            recommended_cpu_nodes=cpu_nodes,
        )
        return self._initialization

    # ------------------------------------------------------------------ #
    # Phase 3: runtime
    # ------------------------------------------------------------------ #
    def run(self, num_iterations: Optional[int] = None):
        """Run the training loop: ``num_iterations`` (default: the
        config's) fresh global batches with periodic asynchronous
        checkpoints and no cluster events.

        The zero-event :meth:`run_scenario` over the full batch stream
        (``sample_iterations = num_iterations``); returns its
        :class:`~repro.scenarios.result.ScenarioResult`.
        """
        from repro.scenarios.spec import ScenarioSpec

        if num_iterations is None:
            num_iterations = self.config.num_iterations
        return self.run_scenario(
            ScenarioSpec(
                num_iterations=num_iterations,
                sample_iterations=num_iterations,
            )
        )

    def run_scenario(self, scenario):
        """Run the training loop under cluster dynamics.

        ``scenario`` is a :class:`~repro.scenarios.spec.ScenarioSpec`;
        the returned :class:`~repro.scenarios.result.ScenarioResult`
        carries goodput, lost work, recovery time, and the MFU
        trajectory. The manager's lifecycle (data analysis,
        orchestration, initialization) runs first, and every iteration
        simulator prices the preprocessing pool the initializer sized;
        failures and elastic resizes then re-enter the orchestrator
        through the scenario engine. A checkpoint policy the manager
        was constructed with overrides the scenario's default interval.
        """
        from repro.scenarios.engine import run_scenario

        return run_scenario(
            self.config,
            scenario,
            checkpoint=self.checkpoint,
            cpu_nodes=self.initialize().recommended_cpu_nodes,
        )
