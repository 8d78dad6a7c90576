"""Baseline orchestrators: Megatron-LM monolithic and DistMM*.

* **Megatron-LM** (section 2.1): one TP degree for everything (8, the
  node size), the encoder and generator become extra pipeline stages of
  the LLM's pipeline (each one node wide per DP replica, with the small
  modules replicated across the node's GPUs), and every module shares the
  LLM's DP degree.
* **DistMM*** (section 7, ablation baseline): disaggregated like
  DistTrain but allocates GPUs proportionally to module FLOPs, ignoring
  the pipeline performance model.
"""

from __future__ import annotations

import time
from typing import Dict, Optional

from repro.models.base import ModuleWorkload
from repro.models.mllm import MODULE_NAMES
from repro.orchestration.errors import InfeasibleClusterError
from repro.orchestration.adaptive import (
    OrchestrationResult,
    divisors,
    orchestration_result,
)
from repro.orchestration.memory import MemoryModel
from repro.orchestration.problem import OrchestrationProblem
from repro.parallelism.plan import ParallelismPlan


class MegatronOrchestrator:
    """Monolithic model orchestration (retrofit Megatron-LM).

    The encoder/generator stages are one node (TP-group width) per
    pipeline replica; within that node the small modules are replicated
    across GPUs to process different images (section 7.1).
    """

    label = "megatron-lm"

    def __init__(self, problem: OrchestrationProblem, tp: int = 8):
        self.problem = problem
        self.tp = min(tp, problem.cluster.gpus_per_node)
        gpu = problem.cluster.gpu
        self.memory = MemoryModel(gpu_memory_bytes=gpu.memory_bytes)

    def plan(self) -> OrchestrationResult:
        problem = self.problem
        started = time.perf_counter()
        tp = self.tp
        budget = problem.num_gpus
        M = problem.microbatch_size

        pp_lm = self._llm_pp()
        # One extra TP-group-wide stage each for encoder and generator.
        gpus_per_replica = tp * (pp_lm + 2)
        max_dp = budget // gpus_per_replica
        if max_dp < 1:
            raise InfeasibleClusterError(
                f"cluster too small for monolithic pp={pp_lm} tp={tp} "
                f"({budget} GPUs)",
                num_gpus=budget,
            )
        per_iter_samples = problem.global_batch_size // M
        dp_lm = max(
            (d for d in divisors(per_iter_samples) if d <= max_dp),
            default=None,
        )
        if dp_lm is None:
            raise InfeasibleClusterError(
                "no feasible DP for monolithic orchestration "
                f"({budget} GPUs)",
                num_gpus=budget,
            )

        plans: Dict[str, ParallelismPlan] = {
            # The small modules run replicated inside the TP-group node.
            "encoder": ParallelismPlan(
                tp=1, pp=1, dp=tp * dp_lm, microbatch_size=M
            ),
            "llm": ParallelismPlan(
                tp=tp, pp=pp_lm, dp=dp_lm, vpp=problem.vpp,
                microbatch_size=M,
            ),
            "generator": ParallelismPlan(
                tp=1, pp=1, dp=tp * dp_lm, microbatch_size=M
            ),
        }
        return orchestration_result(
            problem, self.label, plans, started, monolithic=True
        )

    def _llm_pp(self) -> int:
        """Megatron's published depths: pp=1/2/10 for 7B/13B/70B.

        Reproduced by taking the smallest layer-dividing depth that fits
        memory with one extra safety factor for the monolithic pipeline's
        longer in-flight window. Other LLMs take that depth too; where no
        depth fits, the cluster is infeasible.
        """
        problem = self.problem
        llm = problem.mllm.llm
        workload = ModuleWorkload(samples=problem.microbatch_size)
        name_map = {"llama3-7b": 1, "llama3-13b": 2, "llama3-70b": 10}
        if llm.name in name_map:
            return name_map[llm.name]
        pp_min = self.memory.min_pp_for_llm(
            llm.param_count(),
            llm.activation_bytes(workload),
            tp=self.tp,
            dp=1,
            trainable=problem.frozen.trains("llm"),
            max_pp=llm.num_layers,
        )
        if not pp_min:
            raise InfeasibleClusterError(
                f"{llm.name} does not fit GPU memory at tp={self.tp} even "
                f"with pp={llm.num_layers} ({problem.num_gpus} GPUs)",
                num_gpus=problem.num_gpus,
            )
        feasible = [pp for pp in divisors(llm.num_layers) if pp >= pp_min]
        return min(feasible)


class DistMMOrchestrator:
    """DistMM* — disaggregated, but resources split by module FLOPs.

    Uses DistTrain's parallelism machinery with a FLOPs-proportional
    allocation (the strawman of section 4.2: "allocate the resources
    proportional to the model flops of each module"), ignoring how TP/DP
    choices change per-GPU throughput.
    """

    label = "distmm*"

    def __init__(self, problem: OrchestrationProblem, tp_lm: int = 8):
        self.problem = problem
        self.tp_lm = min(tp_lm, problem.cluster.gpus_per_node)
        gpu = problem.cluster.gpu
        self.memory = MemoryModel(gpu_memory_bytes=gpu.memory_bytes)

    def plan(self) -> OrchestrationResult:
        problem = self.problem
        started = time.perf_counter()
        budget = problem.num_gpus
        M = problem.microbatch_size
        frozen = problem.frozen

        flops = {}
        for name in MODULE_NAMES:
            workload = problem.per_sample_workload(name)
            module = problem.mllm.module(name)
            fwd = module.forward_flops(workload)
            factor = 1.0 + frozen.backward_factor(name)
            flops[name] = fwd * factor
        # Left to right, so no compensated sum() can move a share.
        total_flops = flops["encoder"] + flops["llm"] + flops["generator"]

        shares = {
            name: max(1, round(budget * f / total_flops))
            for name, f in flops.items()
        }

        # LLM: fit tp/pp/dp inside its share, and inside what the
        # encoder's and generator's shares (at least one GPU each) leave.
        y = min(
            shares["llm"], budget - shares["encoder"] - shares["generator"]
        )
        llm = problem.mllm.llm
        param_count = llm.param_count()
        activation = llm.activation_bytes(ModuleWorkload(samples=M))
        per_iter_samples = problem.global_batch_size // M
        best: Optional[ParallelismPlan] = None
        for pp in divisors(llm.num_layers):
            dp_cap = y // (self.tp_lm * pp)
            if dp_cap < 1:
                continue
            dp = max(
                (d for d in divisors(per_iter_samples) if d <= dp_cap),
                default=None,
            )
            if dp is None:
                continue
            if not self.memory.fits(
                param_count, activation, tp=self.tp_lm, pp=pp, dp=dp,
                trainable=frozen.trains("llm"), in_flight=pp + 2,
            ):
                continue
            plan = ParallelismPlan(
                tp=self.tp_lm, pp=pp, dp=dp, vpp=problem.vpp,
                microbatch_size=M,
            )
            if best is None or plan.num_gpus > best.num_gpus:
                best = plan
        if best is None:
            raise InfeasibleClusterError(
                "DistMM* found no feasible LLM plan "
                f"({problem.num_gpus} GPUs)",
                num_gpus=problem.num_gpus,
            )
        plans = {
            "encoder": ParallelismPlan(
                tp=1, pp=1, dp=max(1, shares["encoder"]), microbatch_size=M
            ),
            "llm": best,
            "generator": ParallelismPlan(
                tp=1, pp=1, dp=max(1, shares["generator"]), microbatch_size=M
            ),
        }
        return orchestration_result(problem, self.label, plans, started)
