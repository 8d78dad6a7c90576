"""The orchestration objective (Eqs. 1-2 of the paper).

For a candidate configuration (TP and DP degrees per module) and a
resource split ``x`` (encoder GPUs), ``y`` (LLM GPUs), ``z`` (generator
GPUs), the training time of one iteration decomposes into:

* **warm-up** — filling the pipeline with the first microbatch::

      T_warmup = M*C_lm + (DP_lm*M/DP_me)*C_me + (DP_lm*M/DP_mg)*C_mg

* **steady** — dominated by the slowest pipeline stage::

      T_steady = max(T_lm, T_me, T_mg) * (BS/(DP_lm*M) - 1)

with ``T_lm = DP_lm*TP_lm*M*C_lm/y`` etc. ``C`` denotes the profiled
fwd+bwd time of the whole module for one sample (frozen modules drop the
weight-gradient half or the whole backward; section 7.3). Virtual
pipeline parallelism divides the LLM's warm-up contribution by the VPP
size (section 4.3).
"""

from __future__ import annotations

from dataclasses import dataclass, fields, replace
from typing import Dict

import numpy as np

from repro.orchestration.problem import OrchestrationProblem
from repro.parallelism.plan import ParallelismPlan


@dataclass(frozen=True)
class CandidateConfig:
    """One point of the finite TP/DP enumeration (section 4.3).

    Attributes:
        tp_lm / dp_lm: LLM tensor/data parallel degrees.
        ep_lm: LLM expert-parallel degree (MoE backbones only). The
            formulation treats EP like TP (section 4.1), so every
            ``tp_lm`` multiplier below becomes the intra-layer width
            ``tp_lm * ep_lm``.
        tp_me / tp_mg: Encoder/generator TP degrees (their DP degrees
            follow from the resource variables: ``dp = gpus/tp``; the
            small modules run one pipeline stage each).
    """

    tp_lm: int
    dp_lm: int
    tp_me: int = 1
    tp_mg: int = 1
    ep_lm: int = 1

    def __post_init__(self) -> None:
        for f in fields(self):
            if getattr(self, f.name) < 1:
                raise ValueError(f"{f.name} must be >= 1")

    @classmethod
    def of(cls, plans: Dict[str, ParallelismPlan]) -> "CandidateConfig":
        """The point that module ``plans`` realize: the LLM's TP, DP and
        EP degrees and the encoder's and generator's TP degrees."""
        llm = plans["llm"]
        return cls(
            tp_lm=llm.tp, dp_lm=llm.dp, tp_me=plans["encoder"].tp,
            tp_mg=plans["generator"].tp, ep_lm=llm.ep,
        )

    @property
    def width_lm(self) -> int:
        """LLM intra-layer width: TP times EP."""
        return self.tp_lm * self.ep_lm


def module_sample_time(
    problem: OrchestrationProblem, module_name: str, tp: int
) -> float:
    """Profiled fwd+bwd time of one sample through the whole module.

    The paper's ``C`` functions with the backward pass folded in,
    honouring the frozen configuration (full backward for trainable
    modules, dX-only for frozen relays, none for a frozen encoder).

    Memoized per problem: the candidate enumeration queries the same
    ``(module, tp)`` pairs hundreds of times per search.
    """
    cache = problem.__dict__.setdefault("_module_sample_time_cache", {})
    key = (module_name, tp)
    cached = cache.get(key)
    if cached is not None:
        return cached
    profiler = problem.profiler()
    workload = problem.per_sample_workload(module_name)
    frozen = problem.frozen
    value = profiler.estimate_fwd_bwd(
        module_name,
        workload,
        tp,
        weight_grads=frozen.trains(module_name),
        backward=frozen.needs_backward(module_name),
    )
    cache[key] = value
    return value


@dataclass(frozen=True)
class ObjectiveBreakdown:
    """Evaluated objective for one (candidate, x, y, z) point, or for
    many at once with array fields (:func:`iteration_breakdown`)."""

    warmup: float
    steady: float
    stage_time_llm: float
    stage_time_encoder: float
    stage_time_generator: float
    num_microbatches: int

    @property
    def total(self) -> float:
        return self.warmup + self.steady

    @property
    def bottleneck(self) -> str:
        stages = {
            "llm": self.stage_time_llm,
            "encoder": self.stage_time_encoder,
            "generator": self.stage_time_generator,
        }
        return max(stages, key=stages.get)


def iteration_breakdown(
    problem: OrchestrationProblem, dp_lm, width_lm, tp_me, tp_mg,
    c_lm, c_me, c_mg, x, y, z,
) -> ObjectiveBreakdown:
    """Eqs. 1-2, elementwise over Python numbers or numpy arrays.

    ``c_*`` are the modules' :func:`module_sample_time` values and
    ``width_lm`` the LLM's TP times EP. The search prices every rounded
    plan in one call with array fields; :func:`objective` is the call on
    one point. ``steady`` comes out of ``np.maximum``, so it is a numpy
    scalar even for scalar inputs.
    """
    M = problem.microbatch_size
    num_microbatches = problem.global_batch_size // (dp_lm * M)

    # Eq. 2 stage times (per microbatch, per PP stage).
    t_lm = dp_lm * width_lm * M * c_lm / y
    t_me = dp_lm * tp_me * M * c_me / x
    t_mg = dp_lm * tp_mg * M * c_mg / z

    # Eq. 1 warm-up; VPP shrinks the LLM's pipeline-fill contribution.
    warmup = (
        M * c_lm / problem.vpp
        + dp_lm * M * tp_me * c_me / x
        + dp_lm * M * tp_mg * c_mg / z
    )
    steady = np.maximum(t_lm, np.maximum(t_me, t_mg)) * np.maximum(
        0, num_microbatches - 1
    )
    return ObjectiveBreakdown(
        warmup=warmup,
        steady=steady,
        stage_time_llm=t_lm,
        stage_time_encoder=t_me,
        stage_time_generator=t_mg,
        num_microbatches=num_microbatches,
    )


def objective(
    problem: OrchestrationProblem,
    candidate: CandidateConfig,
    x: float,
    y: float,
    z: float,
) -> ObjectiveBreakdown:
    """Evaluate Eqs. 1-2 at a (possibly fractional) resource split."""
    if min(x, y, z) <= 0:
        raise ValueError("resource variables must be positive")
    breakdown = iteration_breakdown(
        problem, candidate.dp_lm, candidate.width_lm,
        candidate.tp_me, candidate.tp_mg,
        module_sample_time(problem, "llm", candidate.tp_lm),
        module_sample_time(problem, "encoder", candidate.tp_me),
        module_sample_time(problem, "generator", candidate.tp_mg),
        x, y, z,
    )
    # One point: every field a Python number, steady included.
    return replace(breakdown, steady=float(breakdown.steady))
