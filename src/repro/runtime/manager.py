"""DistTrain manager / initializer / runtime flow (section 3, Figure 8).

:class:`DistTrainManager` drives the full lifecycle the paper describes:

1. **manager** — gather the model architecture and training
   configuration, sample training data to analyze its distribution, run
   benchmarking trials to build the interpolating profiler, and decide
   the orchestration with the adaptive algorithm;
2. **initializer** — materialize the parallelism units on the cluster
   (contiguous GPU blocks, communication groups), set up the
   communication brokers between adjacent units, and run communication
   warm-up trials to verify connectivity;
3. **runtime** — feed reordered global batches from the (disaggregated)
   preprocessing service through the iteration simulator, with periodic
   asynchronous checkpointing.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.cluster.topology import ClusterTopology
from repro.core.config import DistTrainConfig
from repro.data.synthetic import SyntheticMultimodalDataset
from repro.orchestration.adaptive import AdaptiveOrchestrator, OrchestrationResult
from repro.orchestration.baselines import DistMMOrchestrator, MegatronOrchestrator
from repro.orchestration.problem import OrchestrationProblem, SampleProfile
from repro.parallelism.broker import CommunicationBroker, broker_transfer_time
from repro.parallelism.unit import ParallelismUnit
from repro.preprocessing.cost import PreprocessCostModel
from repro.preprocessing.disaggregated import required_cpu_nodes
from repro.runtime.checkpoint import CheckpointConfig
from repro.runtime.iteration import TrainingIterationSimulator
from repro.runtime.trainer import TrainingRun, TrainingRunResult
from repro.timing.costmodel import ModuleCostModel

#: Samples the manager draws to analyze the data distribution.
DATA_ANALYSIS_SAMPLES = 256


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
        self._profile: Optional[SampleProfile] = None
        self._orchestration: Optional[OrchestrationResult] = None
        self._initialization: Optional[InitializationReport] = None

    # ------------------------------------------------------------------ #
    # Phase 1: manager
    # ------------------------------------------------------------------ #
    def analyze_data(self) -> SampleProfile:
        """Sample the training stream and profile its distribution."""
        if self._profile is None:
            dataset = SyntheticMultimodalDataset(
                seq_len=self.config.mllm.seq_len,
                config=self.config.data_config,
                seed=self.config.data_seed,
            )
            self._profile = SampleProfile.from_samples(
                dataset.take(DATA_ANALYSIS_SAMPLES)
            )
        return self._profile

    def orchestrate(self) -> OrchestrationResult:
        """Run benchmarking trials and decide the orchestration."""
        if self._orchestration is None:
            problem = OrchestrationProblem(
                mllm=self.config.mllm,
                cluster=self.config.cluster,
                global_batch_size=self.config.global_batch_size,
                microbatch_size=self.config.microbatch_size,
                frozen=self.config.frozen,
                profile=self.analyze_data(),
                vpp=self.config.vpp,
                tp_overlap_fraction=self.config.tp_overlap_fraction,
            )
            orchestrator = {
                "disttrain": AdaptiveOrchestrator,
                "megatron-lm": MegatronOrchestrator,
                "distmm*": DistMMOrchestrator,
            }[self.config.system](problem)
            self._orchestration = orchestrator.plan()
        return self._orchestration

    # ------------------------------------------------------------------ #
    # Phase 2: initializer
    # ------------------------------------------------------------------ #
    def initialize(self) -> InitializationReport:
        """Materialize units, brokers, and warm-up trials."""
        if self._initialization is not None:
            return self._initialization
        orchestration = self.orchestrate()
        plan = orchestration.plan

        # Place units on physical GPUs (contiguous blocks).
        topology = ClusterTopology(self.config.cluster)
        units = plan.build_units()
        for unit in units.values():
            topology.allocate(unit.name, unit.num_gpus)

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
            boundary: broker_transfer_time(bs, boundary_bytes, link)
            for boundary, bs in brokers.items()
        }

        # Elastic preprocessing pool sizing.
        dataset = SyntheticMultimodalDataset(
            seq_len=self.config.mllm.seq_len,
            config=self.config.data_config,
            seed=self.config.data_seed,
        )
        batch = dataset.take(self.config.global_batch_size)
        cpu_nodes = required_cpu_nodes(
            PreprocessCostModel(),
            batch,
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
    def run(self, num_iterations: Optional[int] = None) -> TrainingRunResult:
        """Run the training loop."""
        if num_iterations is not None and num_iterations < 1:
            raise ValueError("num_iterations must be >= 1")
        orchestration = self.orchestrate()
        self.initialize()
        config = self.config
        cost_models = {
            name: ModuleCostModel(
                config.mllm.module(name),
                config.cluster.node,
                tp_overlap_fraction=config.tp_overlap_fraction,
            )
            for name in ("encoder", "llm", "generator")
        }
        simulator = TrainingIterationSimulator(
            plan=orchestration.plan,
            frozen=config.frozen,
            cost_models=cost_models,
            schedule=config.schedule,
            intra_reordering=config.effective_intra_reordering,
            inter_reordering=config.effective_inter_reordering,
            preprocessing=config.effective_preprocessing,
            cpu_nodes=self._initialization.recommended_cpu_nodes,
        )
        run = TrainingRun(
            simulator=simulator,
            dataset=SyntheticMultimodalDataset(
                seq_len=config.mllm.seq_len,
                config=config.data_config,
                seed=config.data_seed,
            ),
            global_batch_size=config.global_batch_size,
            num_iterations=(
                num_iterations
                if num_iterations is not None
                else config.num_iterations
            ),
            checkpoint=self.checkpoint,
        )
        return run.run()

    def run_scenario(self, scenario):
        """Run the training loop under cluster dynamics.

        ``scenario`` is a :class:`~repro.scenarios.spec.ScenarioSpec`;
        the returned :class:`~repro.scenarios.engine.ScenarioResult`
        carries goodput, lost work, recovery time, and the MFU
        trajectory. The manager's lifecycle (data analysis,
        orchestration, initialization) runs first, exactly as for
        :meth:`run`; failures and elastic resizes then re-enter the
        orchestrator through the scenario engine. A checkpoint policy
        the manager was constructed with overrides the scenario's
        default interval, matching :meth:`run`.
        """
        from repro.scenarios.engine import ScenarioEngine

        self.orchestrate()
        self.initialize()
        return ScenarioEngine(
            self.config, scenario, checkpoint=self.checkpoint
        ).run()
