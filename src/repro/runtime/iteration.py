"""End-to-end training-iteration simulation.

Converts an orchestration plan plus a concrete global batch into one
iteration's timing:

1. order the batch (optional intra-/inter-microbatch reordering);
2. shard it across the LLM's DP ranks (contiguous blocks, as the
   intra-reorder contract requires) and cut each shard into microbatches;
3. build per-(stage, microbatch) forward/backward durations from the
   module cost models, pricing the simulated ranks' samples in one
   array pass — encoder/generator durations vary per microbatch (data
   heterogeneity), LLM durations are constant;
4. run the cycle-accurate pipeline simulator for every DP rank; the
   iteration's pipeline phase is the slowest rank (they synchronize at
   the gradient reduction — the intra-microbatch straggler effect);
5. add exposed DP gradient synchronization, optimizer step, and data
   preprocessing overhead (co-located or disaggregated).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.data.sample import BatchColumns, SampleBatch, TrainingSample
from repro.models.base import ModuleWorkload
from repro.models.mllm import MODULE_NAMES
from repro.numerics import price_by_count
from repro.parallelism.broker import broker_count, broker_transfer_time
from repro.parallelism.orchestration_plan import ModelOrchestrationPlan
from repro.pipeline.kernel import get_kernel
from repro.pipeline.schedules import ScheduleKind
from repro.preprocessing import PREPROCESSING_MODES
from repro.preprocessing.colocated import CoLocatedPreprocessing
from repro.preprocessing.cost import PreprocessCostModel
from repro.preprocessing.disaggregated import DisaggregatedPreprocessing
from repro.preprocessing.transfer import TransferModel
from repro.reordering.inter import MicrobatchCostModel, reorder_ranks
from repro.reordering.intra import intra_reorder
from repro.runtime.frozen import FrozenConfig
from repro.runtime.mfu import ModelFlopsAccountant, mfu, token_throughput
from repro.timing.collectives import CollectiveModel
from repro.timing.costmodel import ModuleCostModel

#: Optimizer step + bookkeeping per iteration (seconds).
OPTIMIZER_STEP_SECONDS = 0.04


@dataclass
class IterationResult:
    """Timing and efficiency of one simulated training iteration."""

    iteration_time: float
    pipeline_time: float
    dp_sync_time: float
    preprocess_overhead: float
    optimizer_time: float
    model_flops: float
    num_gpus: int
    mfu: float
    throughput_tokens_per_s: float
    bubble_fraction: float
    per_rank_makespans: List[float] = field(default_factory=list)

    @property
    def straggler_spread(self) -> float:
        """max/mean pipeline makespan across DP ranks (intra-microbatch
        straggler severity; 1.0 = perfectly balanced)."""
        if not self.per_rank_makespans:
            return 1.0
        mean = float(np.mean(self.per_rank_makespans))
        return float(max(self.per_rank_makespans) / mean) if mean > 0 else 1.0


@dataclass
class PreparedIteration:
    """One global batch's duration tables, ready for (re-)evaluation.

    The expensive half of :meth:`TrainingIterationSimulator.simulate` —
    batch ordering, cost-model pricing, inter-microbatch reordering and
    the batch's model FLOPs — is independent of runtime dynamics. The
    scenario engine prepares a batch once and re-prices it under
    straggler slowdowns via :func:`evaluate_prepared_many` without
    re-running any of it. ``columns`` are the batch's, in draw order,
    for the preprocessing overhead.
    """

    columns: BatchColumns
    rank_work: List[Tuple[np.ndarray, np.ndarray, List[int], float]]
    simulated_ranks: List[int]
    num_microbatches: int
    model_flops: float


class TrainingIterationSimulator:
    """Simulates training iterations under one orchestration plan.

    Args:
        plan: Resource allocation + parallelism strategy.
        frozen: Training-phase freeze configuration.
        cost_models: Module cost models (name -> model). The LLM cost
            model's ``tp_overlap_fraction`` should reflect StepCCL for
            DistTrain and plain NCCL for baselines.
        schedule: Pipeline schedule for the whole (three-unit) pipeline.
        intra_reordering / inter_reordering: DistTrain's two-level data
            reordering (both off reproduces Megatron's random order).
        preprocessing: ``"disaggregated"``, ``"colocated"`` or ``"none"``.
        max_simulated_ranks: Simulate at most this many DP ranks' pipe-
            lines: the lightest and heaviest by total sample size plus
            an evenly spaced sample between them; 0 = all, otherwise at
            least 2. Once Algorithm 1 has balanced the sizes, the pick
            can miss the slowest rank, so only 0 gives the exact
            straggler max.
    """

    def __init__(
        self,
        plan: ModelOrchestrationPlan,
        frozen: FrozenConfig = FrozenConfig(),
        cost_models: Optional[Dict[str, ModuleCostModel]] = None,
        schedule: ScheduleKind = ScheduleKind.ONE_F_ONE_B,
        intra_reordering: bool = True,
        inter_reordering: bool = True,
        preprocessing: str = "disaggregated",
        cpu_nodes: int = 8,
        max_simulated_ranks: int = 16,
    ):
        if preprocessing not in PREPROCESSING_MODES:
            raise ValueError(f"unknown preprocessing mode {preprocessing!r}")
        if max_simulated_ranks != 0 and max_simulated_ranks < 2:
            raise ValueError(
                "max_simulated_ranks must be 0 (all ranks) or at least 2, "
                f"got {max_simulated_ranks}"
            )
        self.plan = plan
        self.frozen = frozen
        self.schedule = schedule
        self.intra_reordering = intra_reordering
        self.inter_reordering = inter_reordering
        self.preprocessing = preprocessing
        self.max_simulated_ranks = max_simulated_ranks

        node = plan.cluster.node
        if cost_models is None:
            cost_models = {
                name: ModuleCostModel(plan.mllm.module(name), node)
                for name in MODULE_NAMES
            }
        self.cost_models = cost_models
        self.collectives = CollectiveModel(
            intra_link=node.intra_link, inter_link=node.inter_link
        )
        self.accountant = ModelFlopsAccountant(plan.mllm, frozen)
        self.preprocess_cost = PreprocessCostModel()
        self.transfer = TransferModel(link=node.inter_link)
        self._colocated = CoLocatedPreprocessing(
            node=node, cost=self.preprocess_cost
        )
        self._disaggregated = DisaggregatedPreprocessing(
            cost=self.preprocess_cost,
            transfer=self.transfer,
            cpu_nodes=cpu_nodes,
            cores_per_node=plan.cluster.cpu_cores_per_node,
        )

    # ------------------------------------------------------------------ #
    # Module times
    # ------------------------------------------------------------------ #
    def _module_time(
        self, name: str, workload: ModuleWorkload
    ) -> Tuple[float, float]:
        """(forward, backward) time of ``workload`` through one module."""
        cost = self.cost_models[name]
        tp = self.plan.plans[name].tp
        forward = cost.forward_time(workload, tp)
        backward = 0.0
        if self.frozen.backward_factor(name) != 0.0:
            backward = cost.backward_time(
                workload, tp, weight_grads=self.frozen.trains(name)
            )
        return forward, backward

    def _boundary_comm_time(self) -> float:
        """Inter-stage activation transfer per microbatch.

        Unit boundaries (encoder->llm, llm->generator) route through the
        communication brokers — ``gcd(DP_up, DP_down)`` of them carry the
        tensor in parallel, with DistTrain's asynchronous sends (section
        6). Intra-unit PP hops are plain p2p. The pipeline simulator
        takes one uniform delay, so we use the slowest of the three.
        """
        llm = self.plan.mllm.llm
        bytes_ = llm.boundary_activation_bytes(self.plan.microbatch_size)
        intra_unit = self.collectives.pp_send(bytes_)
        link = self.plan.cluster.node.inter_link
        asynchronous = not self.plan.monolithic
        plans = self.plan.plans
        boundary_times = [intra_unit]
        for upstream, downstream in (("encoder", "llm"), ("llm", "generator")):
            brokers = broker_count(plans[upstream].dp, plans[downstream].dp)
            boundary_times.append(
                broker_transfer_time(
                    brokers, bytes_, link, asynchronous=asynchronous
                )
            )
        return max(boundary_times)

    # ------------------------------------------------------------------ #
    # Main entry point
    # ------------------------------------------------------------------ #
    def simulate(self, global_batch: Sequence[TrainingSample]) -> IterationResult:
        return self.evaluate_prepared(self.prepare(global_batch))

    def prepare(
        self, global_batch: Sequence[TrainingSample]
    ) -> PreparedIteration:
        """Order, shard, and price a global batch (no pipeline sweep).

        Every pass reads the batch's int64 columns: those a
        :class:`~repro.data.sample.SampleBatch` carries (the cached
        draws of :func:`repro.core.api.sample_batches`), or, for any
        other sample sequence, columns built here.
        """
        if isinstance(global_batch, SampleBatch):
            columns = global_batch.columns
        else:
            columns = BatchColumns.of(global_batch)
        plan = self.plan
        dp_lm = plan.plans["llm"].dp
        M = plan.microbatch_size
        n = len(columns)
        if n == 0:
            raise ValueError("cannot simulate an empty global batch")
        if n % (dp_lm * M) != 0:
            raise ValueError(
                f"global batch of {n} does not divide "
                f"across dp={dp_lm}, microbatch={M}"
            )

        if self.intra_reordering:
            sizes = columns.image_tokens.tolist()
            ordered = np.array(
                intra_reorder(range(n), dp_lm, size=sizes.__getitem__),
                dtype=np.int64,
            )
        else:
            ordered = np.arange(n)

        per_rank = n // dp_lm
        num_microbatches = per_rank // M
        rank_rows = ordered.reshape(dp_lm, per_rank)

        ranks_to_simulate = self._select_ranks(
            columns.image_tokens[rank_rows]
        )
        tables = self._rank_tables(
            columns[rank_rows[ranks_to_simulate].ravel()], num_microbatches
        )
        comm = self._boundary_comm_time()
        if self.inter_reordering and num_microbatches > 2:
            # Algorithm 2 for every simulated rank in lockstep.
            orders = reorder_ranks(
                [MicrobatchCostModel(fwd, bwd, comm) for fwd, bwd in tables],
                vpp=self.plan.plans["llm"].vpp,
            )
        else:
            orders = [list(range(num_microbatches)) for _ in tables]
        rank_work = [
            (fwd, bwd, order, comm)
            for (fwd, bwd), order in zip(tables, orders)
        ]
        return PreparedIteration(
            columns=columns,
            rank_work=rank_work,
            simulated_ranks=ranks_to_simulate,
            num_microbatches=num_microbatches,
            model_flops=self.accountant.batch_flops(columns),
        )

    def evaluate_prepared(
        self,
        prepared: PreparedIteration,
        rank_slowdowns: Optional[Sequence[float]] = None,
    ) -> IterationResult:
        """Run the pipeline sweep over a prepared batch.

        Args:
            prepared: Output of :meth:`prepare`.
            rank_slowdowns: Optional per-simulated-rank compute slowdown
                factors (aligned with ``prepared.simulated_ranks``); a
                straggler rank's stage durations are scaled before the
                kernel sweep while communication delays stay fixed. None
                evaluates the batch exactly as :meth:`simulate` would.
        """
        return evaluate_prepared_many([(self, prepared, rank_slowdowns)])[0]

    def _assemble(
        self,
        prepared: PreparedIteration,
        makespans: List[float],
        bubble_fractions: Sequence[float],
    ) -> IterationResult:
        """Scalar result assembly from per-rank sweep outputs — one
        task's slice of :func:`evaluate_prepared_many`'s stacked kernel
        call."""
        plan = self.plan
        columns = prepared.columns
        pipeline_time = max(makespans)
        dp_sync = self._dp_sync_time()
        preprocess = self._preprocess_overhead(columns, pipeline_time)
        iteration_time = (
            pipeline_time + dp_sync + preprocess + OPTIMIZER_STEP_SECONDS
        )

        flops = prepared.model_flops
        peak = plan.cluster.gpu.peak("bf16")
        return IterationResult(
            iteration_time=iteration_time,
            pipeline_time=pipeline_time,
            dp_sync_time=dp_sync,
            preprocess_overhead=preprocess,
            optimizer_time=OPTIMIZER_STEP_SECONDS,
            model_flops=flops,
            num_gpus=plan.num_gpus,
            mfu=mfu(flops, iteration_time, plan.num_gpus, peak),
            throughput_tokens_per_s=token_throughput(
                len(columns), plan.mllm.seq_len, iteration_time
            ),
            bubble_fraction=float(np.mean(bubble_fractions)),
            per_rank_makespans=makespans,
        )

    # ------------------------------------------------------------------ #
    # Internals
    # ------------------------------------------------------------------ #
    def _select_ranks(self, rank_sizes: np.ndarray) -> List[int]:
        """Which DP ranks to simulate in full, from the ``(dp, per_rank)``
        sample sizes of each rank's batch.

        The slowest rank determines the pipeline phase; ranks are ranked
        by total encoder+generator load (exact integer sums, ties in
        rank order) and the extremes plus an evenly spaced middle
        sample are simulated.
        """
        dp = len(rank_sizes)
        limit = self.max_simulated_ranks
        if limit <= 0 or dp <= limit:
            return list(range(dp))
        order = np.argsort(rank_sizes.sum(axis=1), kind="stable").tolist()
        picks = {order[0], order[-1]}
        if limit > 2:
            step = max(1, dp // (limit - 2))
            picks.update(order[::step][: limit - 2])
        return sorted(picks)

    def _rank_tables(
        self, columns: BatchColumns, num_microbatches: int
    ) -> List[Tuple[np.ndarray, np.ndarray]]:
        """The ``(l, p)`` forward and backward duration tables of the DP
        ranks whose batches ``columns`` holds back to back.

        One array pass prices every sample: the encoder through
        :meth:`ModuleCostModel.sample_times`, the generator from its
        scalar times by image count (its workload depends on nothing
        else). A microbatch's encoder or generator stage time sums its
        samples' times by strided left-to-right adds, bit for bit the
        ``sum(t[i:i+M])`` of CPython 3.10/3.11 (numpy's pairwise
        reduction and 3.12's compensated ``sum()`` need not be), spread
        over the unit's DP replicas relative to the LLM's DP degree. The
        LLM sees ``seq_len`` tokens per sample, so its stage time is one
        sample's time scaled by the microbatch size.
        """
        plans = self.plan.plans
        M = self.plan.microbatch_size
        dp_lm = plans["llm"].dp
        images = columns.num_images
        frozen = self.frozen
        encoder = self.cost_models["encoder"].sample_times(
            columns.image_tokens,
            images,
            plans["encoder"].tp,
            weight_grads=frozen.trains("encoder"),
            backward=frozen.backward_factor("encoder") != 0.0,
        )

        def generator(num_images: int) -> Tuple[float, float]:
            workload = self.accountant.generator_workload(num_images)
            return self._module_time("generator", workload)

        per_sample = {
            "encoder": np.array(encoder),
            "generator": price_by_count(images, generator),
        }
        num_ranks = len(columns) // (num_microbatches * M)
        num_stages = sum(plans[name].pp for name in MODULE_NAMES)
        tables = np.empty((2, num_ranks, num_microbatches, num_stages))
        column = 0
        for name in MODULE_NAMES:
            plan = plans[name]
            if name == "llm":
                f, b = self._module_time(name, ModuleWorkload(samples=1))
                scale = M / plan.pp
                stage = np.array([[[f * scale]], [[b * scale]]])
            else:
                times = per_sample[name]
                total = times[:, 0::M].copy()
                for j in range(1, M):
                    total += times[:, j::M]
                stage = total * (dp_lm / plan.dp) / plan.pp
                stage = stage.reshape(2, num_ranks, num_microbatches)
            tables[..., column : column + plan.pp] = stage[..., None]
            column += plan.pp
        return [(tables[0, r], tables[1, r]) for r in range(num_ranks)]

    def _rank_durations(
        self,
        rank_work: List[Tuple[np.ndarray, np.ndarray, List[int], float]],
        num_microbatches: int,
        rank_slowdowns: Optional[Sequence[float]] = None,
    ):
        """Gather half of the rank sweep: (kernel, durations, delays).

        Builds the final per-rank duration rows (reorder gather, VPP
        division, straggler scaling) without running the kernel, so
        callers can stack rows from many prepared batches that share a
        compiled kernel into one sweep.
        """
        num_stages = rank_work[0][0].shape[1]
        schedule, vpp = self._effective_schedule(num_microbatches, num_stages)
        kernel = get_kernel(schedule, num_stages, num_microbatches, vpp)

        durations = kernel.durations_from_rank_tables(
            np.stack([work[0] for work in rank_work]),
            np.stack([work[1] for work in rank_work]),
            [work[2] for work in rank_work],
        )
        if vpp > 1:
            durations /= vpp
        delays = np.array([work[3] for work in rank_work], dtype=float)
        if rank_slowdowns is not None:
            factors = np.asarray(rank_slowdowns, dtype=float)
            if factors.shape != (len(rank_work),):
                raise ValueError(
                    f"expected {len(rank_work)} rank slowdowns, "
                    f"got shape {factors.shape}"
                )
            if not np.all(np.isfinite(factors)):
                raise ValueError("straggler slowdowns must be finite")
            if np.any(factors < 1.0):
                raise ValueError("straggler slowdowns must be >= 1.0")
            durations *= factors[:, None]
        return kernel, durations, delays

    def _effective_schedule(
        self, num_microbatches: int, num_stages: int
    ) -> Tuple[ScheduleKind, int]:
        vpp = self.plan.plans["llm"].vpp
        if (
            self.schedule is ScheduleKind.INTERLEAVED
            and vpp > 1
            and num_microbatches % num_stages == 0
        ):
            return ScheduleKind.INTERLEAVED, vpp
        if self.schedule is ScheduleKind.GPIPE:
            return ScheduleKind.GPIPE, 1
        return ScheduleKind.ONE_F_ONE_B, 1

    def _dp_sync_time(self) -> float:
        """Exposed ZeRO-1 gradient reduce-scatter + param allgather.

        The three units synchronize concurrently on disjoint GPUs, so
        the slowest one is exposed.
        """
        worst = 0.0
        for name, plan in self.plan.plans.items():
            if not self.frozen.trains(name):
                continue
            worst = max(worst, self.collectives.dp_sync_exposed(
                self.plan.mllm.module(name).param_count(),
                plan.tp, plan.pp, plan.dp,
            ))
        return worst

    def _preprocess_overhead(
        self, columns: BatchColumns, pipeline_time: float
    ) -> float:
        if self.preprocessing == "none":
            return 0.0
        dp_lm = self.plan.plans["llm"].dp
        if self.preprocessing == "colocated":
            # Each training node preprocesses its own DP shard: the
            # heaviest by pixels, ties in batch order.
            per_rank = len(columns) // dp_lm
            heaviest = np.argsort(-columns.pixels, kind="stable")[:per_rank]
            return self._colocated.exposed_overhead(
                columns[heaviest], pipeline_time
            )
        return self._disaggregated.exposed_overhead(columns, pipeline_time)


def evaluate_prepared_many(
    tasks: Sequence[
        Tuple[
            TrainingIterationSimulator,
            PreparedIteration,
            Optional[Sequence[float]],
        ]
    ],
) -> List[IterationResult]:
    """Price many prepared batches through fused kernel sweeps — the one
    pricing path (:meth:`TrainingIterationSimulator.evaluate_prepared`
    is a one-task call).

    Each task is ``(simulator, prepared, rank_slowdowns_or_None)``.
    Tasks whose batches compile to the same pipeline kernel (same
    schedule shape — the common case for a fleet of same-config jobs)
    are stacked into one :meth:`~repro.pipeline.kernel.SimulatorKernel
    .evaluate_batch` call. The kernel's level sweep reduces rows
    independently, so a task's result does not depend on which other
    tasks share its call.
    """
    gathered = [
        sim._rank_durations(
            prepared.rank_work,
            prepared.num_microbatches,
            rank_slowdowns=slowdowns,
        )
        for sim, prepared, slowdowns in tasks
    ]
    # Group rows by compiled kernel. ``get_kernel`` memoizes per shape
    # and the gathered list keeps every kernel alive, so id() is stable.
    groups: Dict[int, List[int]] = {}
    for i, (kernel, _, _) in enumerate(gathered):
        groups.setdefault(id(kernel), []).append(i)

    results: List[Optional[IterationResult]] = [None] * len(tasks)
    for members in groups.values():
        kernel = gathered[members[0]][0]
        durations = np.concatenate([gathered[i][1] for i in members])
        delays = np.concatenate([gathered[i][2] for i in members])
        start, end = kernel.evaluate_batch(durations, delays)
        makespans = kernel.makespans(end)
        bubbles = kernel.bubble_fractions(start, end)
        row = 0
        for i in members:
            n = len(gathered[i][1])
            sim, prepared, _ = tasks[i]
            results[i] = sim._assemble(
                prepared,
                [float(m) for m in makespans[row : row + n]],
                bubbles[row : row + n],
            )
            row += n
    return results  # type: ignore[return-value]
