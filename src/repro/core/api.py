"""High-level planning and simulation entry points."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Sequence, Tuple

from repro.core.config import DistTrainConfig
from repro.core.keyedcache import KeyedCache
from repro.data.sample import SampleBatch
from repro.data.synthetic import SyntheticMultimodalDataset
from repro.models.mllm import MODULE_NAMES
from repro.orchestration.adaptive import (
    AdaptiveOrchestrator,
    OrchestrationResult,
    replan_for_cluster,
)
from repro.orchestration.baselines import DistMMOrchestrator, MegatronOrchestrator
from repro.orchestration.plancache import PLAN_CACHE, planning_signature
from repro.orchestration.problem import OrchestrationProblem, SampleProfile
from repro.runtime.iteration import IterationResult, TrainingIterationSimulator
from repro.timing.costmodel import ModuleCostModel

#: Samples the manager draws to profile the data distribution.
PROFILE_SAMPLES = 256


def dataset(config: DistTrainConfig) -> SyntheticMultimodalDataset:
    """A fresh copy of ``config``'s seeded training stream."""
    return SyntheticMultimodalDataset(
        seq_len=config.mllm.seq_len,
        config=config.data_config,
        seed=config.data_seed,
    )


#: Process-wide data-distribution profiles, keyed by
#: (seq_len, distribution config, seed) — the same
#: :class:`~repro.core.keyedcache.KeyedCache` store the plan cache and
#: the noise-free profiler cache use.
PROFILE_CACHE = KeyedCache(maxsize=64, name="profile")


def profile(config: DistTrainConfig) -> SampleProfile:
    """Data-distribution profile of ``config``'s stream.

    Datasets are seeded and deterministic, so the profile of the first
    :data:`PROFILE_SAMPLES` samples is a pure function of (seq_len,
    distribution, seed); planning every system/config variant of the
    same task re-uses one profile instead of regenerating the samples.
    """
    return PROFILE_CACHE.get_or_compute(
        (config.mllm.seq_len, config.data_config, config.data_seed),
        lambda: SampleProfile.from_samples(
            dataset(config).take(PROFILE_SAMPLES)
        ),
    )


#: Process-wide global batches, keyed by (seq_len, distribution config,
#: seed, global batch size, count). Paper-sweep trials of one task draw
#: the same batch under every system; scenario and fleet jobs re-price
#: the same K batches at every cluster size. Each batch carries the
#: int64 columns its pricing reads, so they too are built once.
BATCH_CACHE = KeyedCache(maxsize=16, name="batch")


def sample_batches(
    config: DistTrainConfig, count: int = 1
) -> Tuple[SampleBatch, ...]:
    """The first ``count`` global batches of ``config``'s seeded stream.

    Equal to ``count`` successive ``take(global_batch_size)`` calls on a
    fresh dataset. Each ``take`` drops its open tail, so the batches
    depend on the batch size and not only on the stream, which is why
    both are part of the key. Samples and columns are immutable, so
    every caller can share the cached batches.
    """
    def compute() -> Tuple[SampleBatch, ...]:
        stream = dataset(config)
        return tuple(
            SampleBatch(stream.take(config.global_batch_size))
            for _ in range(count)
        )

    return BATCH_CACHE.get_or_compute(
        (
            config.mllm.seq_len,
            config.data_config,
            config.data_seed,
            config.global_batch_size,
            count,
        ),
        compute,
    )


def _problem(config: DistTrainConfig) -> OrchestrationProblem:
    return OrchestrationProblem(
        mllm=config.mllm,
        cluster=config.cluster,
        global_batch_size=config.global_batch_size,
        microbatch_size=config.microbatch_size,
        frozen=config.frozen,
        profile=profile(config),
        vpp=config.vpp,
        tp_overlap_fraction=config.tp_overlap_fraction,
    )


#: Each system's orchestrator, by its
#: :data:`~repro.core.config.KNOWN_SYSTEMS` name.
ORCHESTRATORS = {
    "disttrain": AdaptiveOrchestrator,
    "megatron-lm": MegatronOrchestrator,
    "distmm*": DistMMOrchestrator,
}


def plan(config: DistTrainConfig) -> OrchestrationResult:
    """Run the configured system's orchestrator for this task."""
    return ORCHESTRATORS[config.system](_problem(config)).plan()


def replan(config: DistTrainConfig, num_gpus: int) -> OrchestrationResult:
    """Re-orchestrate the same task on an elastically resized cluster.

    Results are memoized process-wide in
    :data:`repro.orchestration.plancache.PLAN_CACHE`: planning is a pure
    function of ``(config, num_gpus)``, and elastic scenarios oscillate
    between the same few sizes, so each distinct size is solved once —
    by the same cold search (:func:`_replan_uncached`) the scenario and
    fleet engines fill the cache with.
    """
    return PLAN_CACHE.get_or_compute(
        planning_signature(config, num_gpus),
        lambda: _replan_uncached(config, num_gpus),
    )


def _replan_uncached(
    config: DistTrainConfig, num_gpus: int
) -> OrchestrationResult:
    """One cold orchestration of ``config`` at ``num_gpus`` GPUs.

    The only compute any :data:`PLAN_CACHE` key is filled with. At the
    config's own size it is :func:`plan`; DistTrain tasks re-solve on a
    resized cluster through the adaptive entry point
    (:func:`repro.orchestration.adaptive.replan_for_cluster`), and
    baseline systems re-run their own orchestrators there. Sizes whole
    nodes cannot form raise
    :class:`~repro.orchestration.errors.InfeasibleClusterError`, like a
    memory-infeasible slice.
    """
    from repro.cluster.cluster import resized_cluster
    from repro.orchestration.errors import InfeasibleClusterError

    if num_gpus == config.cluster.num_gpus:
        return plan(config)
    if config.system == "disttrain":
        return replan_for_cluster(_problem(config), num_gpus)
    try:
        return plan(
            config.with_(cluster=resized_cluster(config.cluster, num_gpus))
        )
    except InfeasibleClusterError:
        raise
    except ValueError as exc:
        # resized_cluster rejects sizes that whole nodes cannot form;
        # for an elastic scheduler that is the same recoverable
        # condition as a memory-infeasible slice.
        raise InfeasibleClusterError(
            f"cannot re-plan {config.mllm.name} ({config.system}) on "
            f"{num_gpus} GPUs: {exc}",
            num_gpus=num_gpus,
        ) from exc


def simulate_fleet(spec):
    """Simulate a multi-tenant :class:`~repro.fleet.spec.FleetSpec` on
    its shared cluster.

    The fleet layer builds on the per-job scenario core: every tenant
    is a :class:`~repro.fleet.job.JobSimulator` stepping on one shared
    event clock, with the configured scheduling policy reshaping
    allocations at arrivals, completions, and preemptions. Returns a
    :class:`~repro.fleet.engine.FleetResult`.
    """
    from repro.fleet import run_fleet

    return run_fleet(spec)


def build_simulator(
    config: DistTrainConfig,
    orchestration: Optional[OrchestrationResult] = None,
    cpu_nodes: int = 8,
) -> TrainingIterationSimulator:
    """Assemble the iteration simulator for a (planned) task.

    ``cpu_nodes`` is the disaggregated preprocessing pool; the
    lifecycle manager passes the pool its initializer sized.
    """
    if orchestration is None:
        orchestration = plan(config)
    cost_models = {
        name: ModuleCostModel(
            config.mllm.module(name),
            config.cluster.node,
            tp_overlap_fraction=config.tp_overlap_fraction,
        )
        for name in MODULE_NAMES
    }
    return TrainingIterationSimulator(
        plan=orchestration.plan,
        frozen=config.frozen,
        cost_models=cost_models,
        schedule=config.schedule,
        intra_reordering=config.effective_intra_reordering,
        inter_reordering=config.effective_inter_reordering,
        preprocessing=config.effective_preprocessing,
        cpu_nodes=cpu_nodes,
    )


def simulate(
    config: DistTrainConfig,
    orchestration: Optional[OrchestrationResult] = None,
) -> IterationResult:
    """Plan (if needed) and simulate one training iteration."""
    simulator = build_simulator(config, orchestration)
    return simulator.simulate(sample_batches(config)[0])


def simulate_run(config: DistTrainConfig):
    """Simulate ``config.num_iterations`` training iterations.

    The zero-event scenario over the run's full batch stream
    (``sample_iterations = num_iterations``): every iteration prices its
    own fresh global batch, and asynchronous checkpoints stall the clock
    every :attr:`~repro.scenarios.spec.ScenarioSpec.checkpoint_interval`
    iterations. Returns a :class:`~repro.scenarios.result.ScenarioResult`.
    """
    from repro.scenarios import ScenarioSpec, run_scenario

    n = config.num_iterations
    return run_scenario(
        config, ScenarioSpec(num_iterations=n, sample_iterations=n)
    )


@dataclass
class SystemComparison:
    """DistTrain vs baselines on one task (Figures 13-16, 18-19)."""

    config: DistTrainConfig
    results: Dict[str, IterationResult]
    plans: Dict[str, OrchestrationResult]

    def mfu_ratio(self, system: str = "megatron-lm") -> float:
        return self.results["disttrain"].mfu / self.results[system].mfu

    def throughput_ratio(self, system: str = "megatron-lm") -> float:
        ours = self.results["disttrain"].throughput_tokens_per_s
        return ours / self.results[system].throughput_tokens_per_s


def compare_systems(
    config: DistTrainConfig,
    systems: Sequence[str] = ("disttrain", "megatron-lm"),
) -> SystemComparison:
    """Run the same task under multiple systems."""
    results: Dict[str, IterationResult] = {}
    plans: Dict[str, OrchestrationResult] = {}
    for system in systems:
        sys_config = config.with_system(system)
        orchestration = plan(sys_config)
        plans[system] = orchestration
        results[system] = simulate(sys_config, orchestration)
    return SystemComparison(config=config, results=results, plans=plans)
