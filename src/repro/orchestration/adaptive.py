"""Adaptive model orchestration (the paper's section 4.3 algorithm).

The search decomposes into:

1. **enumerate** the finite candidate set — LLM TP confined to powers of
   two up to the node size, LLM DP over divisors of ``BS/M``, and the
   cheapest feasible encoder/generator TP — up front, as arrays;
2. **solve** the convex resource-split subproblem for the whole batch in
   one vectorized analytic pass
   (:func:`repro.orchestration.convex.solve_resource_split_batch`; the
   per-candidate SLSQP oracle is retained behind ``solver="slsqp"``);
3. **round** the continuous splits to feasible integer configurations
   (pipeline depths dividing the layer count, floored by the exact
   minimum-depth grid of
   :meth:`~repro.orchestration.memory.MemoryModel.min_pp_for_llm`) and
   screen every rounded plan's memory in one
   :meth:`~repro.orchestration.memory.MemoryModel.fits` call;
4. **evaluate** the exact objective
   (:func:`~repro.orchestration.formulation.iteration_breakdown`, the
   Eqs. 1-2 that :func:`~repro.orchestration.formulation.objective`
   evaluates on one point, plus the DP gradient-sync cost the
   steady-state formulation abstracts away) for every rounded plan at
   once, shortlist the best few, and
5. **refine** the shortlist with a fast uniform-workload pipeline
   simulation — every schedule shape in one vectorized kernel sweep —
   that captures what Eqs. 1-2 abstract away
   (cool-down, inter-stage communication, schedule effects), then keep
   the best.

The whole procedure runs in well under a second even at thousand-GPU
scale (Table 3 of the paper reports 133-922 ms; the batched engine
solves the same searches in single-digit milliseconds).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, replace
from functools import lru_cache
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.cluster.cluster import resized_cluster
from repro.models.base import ModuleWorkload
from repro.models.mllm import MODULE_NAMES
from repro.obs import instrument as obs
from repro.orchestration.errors import InfeasibleClusterError
from repro.orchestration.convex import (
    solve_resource_split,
    solve_resource_split_batch,
)
from repro.orchestration.formulation import (
    CandidateConfig,
    ObjectiveBreakdown,
    iteration_breakdown,
    module_sample_time,
    objective,
)
from repro.orchestration.memory import MemoryModel
from repro.orchestration.problem import OrchestrationProblem
from repro.parallelism.orchestration_plan import ModelOrchestrationPlan
from repro.parallelism.plan import ParallelismPlan
from repro.pipeline.kernel import get_kernel, union_makespans
from repro.pipeline.schedules import ScheduleKind
from repro.timing.collectives import CollectiveModel

#: Shortlist size for the simulation-refined evaluation.
REFINE_TOP_K = 12


@lru_cache(maxsize=4096)
def _divisors(n: int) -> Tuple[int, ...]:
    if n < 1:
        raise ValueError("n must be positive")
    small, large = [], []
    d = 1
    while d * d <= n:
        if n % d == 0:
            small.append(d)
            if d != n // d:
                large.append(n // d)
        d += 1
    return tuple(small + large[::-1])


def divisors(n: int) -> List[int]:
    """All positive divisors of ``n``, ascending (memoized)."""
    return list(_divisors(n))


@dataclass
class OrchestrationResult:
    """Outcome of an orchestration run (built by
    :func:`orchestration_result`)."""

    plan: ModelOrchestrationPlan
    breakdown: ObjectiveBreakdown
    solve_seconds: float
    candidates_evaluated: int
    convex_solutions: int
    #: Kernel-refined uniform-workload pipeline makespan of the chosen
    #: plan (captures warm-up/cool-down/schedule effects Eqs. 1-2 omit).
    simulated_pipeline_seconds: float

    @property
    def candidate(self) -> CandidateConfig:
        """The chosen plans' point of the TP/DP enumeration."""
        return CandidateConfig.of(self.plan.plans)

    @property
    def predicted_iteration_time(self) -> float:
        return self.breakdown.total


def _stage_times(
    problem: OrchestrationProblem, plans: Dict[str, ParallelismPlan]
) -> Tuple[List[float], List[float]]:
    """Per-stage fwd/bwd durations for one plan (see
    :func:`simulated_pipeline_seconds_batch`)."""
    profiler = problem.profiler()
    M = problem.microbatch_size
    dp_lm = plans["llm"].dp
    stage_fwd: List[float] = []
    stage_bwd: List[float] = []
    for name in MODULE_NAMES:
        plan = plans[name]
        workload = problem.per_sample_workload(name)
        fwd = profiler.estimate(name, workload, plan.tp, "fwd")
        bwd = profiler.estimate(name, workload, plan.tp, "bwd")
        factor = problem.frozen.backward_factor(name)
        bwd = bwd * factor / 2.0
        if name == "llm":
            per_stage_fwd = fwd * M / plan.pp
            per_stage_bwd = bwd * M / plan.pp
        else:
            share = dp_lm * M / plan.dp
            per_stage_fwd = fwd * share / plan.pp
            per_stage_bwd = bwd * share / plan.pp
        stage_fwd.extend([per_stage_fwd] * plan.pp)
        stage_bwd.extend([per_stage_bwd] * plan.pp)
    return stage_fwd, stage_bwd


def simulated_pipeline_seconds_batch(
    problem: OrchestrationProblem,
    collectives: CollectiveModel,
    plans_list: Sequence[Dict[str, ParallelismPlan]],
) -> List[float]:
    """Uniform-workload pipeline makespan of one iteration of each plan.

    Runs the cycle-accurate 1F1B simulator kernel on each plan's stage
    structure with average per-microbatch durations, capturing warm-up,
    cool-down, inter-stage communication, and schedule effects that
    Eqs. 1-2 abstract away. Large microbatch counts are extrapolated
    linearly from two smaller simulations (the steady phase is exactly
    linear once ``n > p``). Every kernel evaluation of the portfolio —
    one or two ``(stages, microbatches)`` shapes per plan — runs in one
    :func:`~repro.pipeline.kernel.union_makespans` level sweep, which
    prices each evaluation bit-identically to sweeping its shape alone,
    so a plan's makespan does not depend on the portfolio around it.
    """
    M = problem.microbatch_size
    llm = problem.mllm.llm
    comm = collectives.pp_send(llm.boundary_activation_bytes(M))
    parts = []
    shapes = []
    for plans in plans_list:
        stage_fwd, stage_bwd = _stage_times(problem, plans)
        p = len(stage_fwd)
        num_microbatches = problem.global_batch_size // (
            plans["llm"].dp * M
        )
        n_small = min(num_microbatches, max(2 * p, 4))
        n_smaller = max(p, n_small // 2)
        shapes.append((num_microbatches, n_small, n_smaller))
        if n_small == num_microbatches:
            evaluated = (n_small,)
        else:
            evaluated = (n_small, n_smaller)
        for n in evaluated:
            kernel = get_kernel(ScheduleKind.ONE_F_ONE_B, p, n, 1)
            durations = kernel.durations_from_stage_times(stage_fwd, stage_bwd)
            parts.append((kernel, durations))
    makespans = iter(union_makespans(parts, comm).tolist())
    results = []
    for num_microbatches, n_small, n_smaller in shapes:
        m_small = next(makespans)
        if n_small == num_microbatches:
            results.append(m_small)
            continue
        m_smaller = next(makespans)
        slope = (m_small - m_smaller) / max(1, n_small - n_smaller)
        results.append(m_small + slope * (num_microbatches - n_small))
    return results


def orchestration_result(
    problem: OrchestrationProblem,
    label: str,
    plans: Dict[str, ParallelismPlan],
    started: float,
    monolithic: bool = False,
    candidates_evaluated: int = 1,
    convex_solutions: int = 0,
    simulated: Optional[float] = None,
) -> OrchestrationResult:
    """The result of an orchestrator that chose the module ``plans``.

    Every orchestrator ends here, so results differ only in the plans
    they choose: the Eqs. 1-2 breakdown is priced at the plans'
    candidate (:meth:`CandidateConfig.of`) and GPU counts, and the
    refined makespan is the plans' kernel sweep
    (:func:`simulated_pipeline_seconds_batch`) unless the caller already
    priced it as ``simulated``. ``solve_seconds`` runs from ``started``
    (a :func:`time.perf_counter` reading) to the built plan, so it
    excludes a sweep priced here.
    """
    breakdown = objective(
        problem, CandidateConfig.of(plans),
        *(float(plans[name].num_gpus) for name in MODULE_NAMES),
    )
    plan = ModelOrchestrationPlan(
        mllm=problem.mllm,
        cluster=problem.cluster,
        encoder_plan=plans["encoder"],
        llm_plan=plans["llm"],
        generator_plan=plans["generator"],
        monolithic=monolithic,
        label=label,
    )
    solve_seconds = time.perf_counter() - started
    if simulated is None:
        node = problem.cluster.node
        collectives = CollectiveModel(
            intra_link=node.intra_link, inter_link=node.inter_link
        )
        simulated = simulated_pipeline_seconds_batch(
            problem, collectives, [plans]
        )[0]
    return OrchestrationResult(
        plan=plan,
        breakdown=breakdown,
        solve_seconds=solve_seconds,
        candidates_evaluated=candidates_evaluated,
        convex_solutions=convex_solutions,
        simulated_pipeline_seconds=simulated,
    )


def replan_for_cluster(
    problem: OrchestrationProblem, num_gpus: int
) -> OrchestrationResult:
    """Elastic re-orchestration: re-solve the resource split on a resized
    cluster (surviving GPUs after a failure, or capacity returning after
    repair).

    Every replan is a cold search on the new cluster — the paper's
    algorithm is fast enough (hundreds of ms at thousand-GPU scale) that
    re-solving at every membership change is cheap relative to restart
    and checkpoint-reload time, and its result depends on nothing the
    process planned before. Callers that re-plan the same cluster sizes
    repeatedly go through :func:`repro.core.api.replan`, which solves
    each (task, size) once per process via
    :data:`repro.orchestration.plancache.PLAN_CACHE`.

    Shrinking below the minimum feasible size raises a clear
    :class:`~repro.orchestration.errors.InfeasibleClusterError` — both
    when the size cannot be formed from whole nodes and when no
    memory-feasible plan exists on it — so elastic schedulers can treat
    infeasibility as the expected, recoverable outcome it is.
    """
    try:
        shrunk = replace(
            problem, cluster=resized_cluster(problem.cluster, num_gpus)
        )
    except ValueError as exc:
        raise InfeasibleClusterError(
            f"cannot re-plan {problem.mllm.name} on {num_gpus} GPUs: {exc}",
            num_gpus=num_gpus,
        ) from exc
    return AdaptiveOrchestrator(shrunk).plan()


class AdaptiveOrchestrator:
    """DistTrain's disaggregated model orchestration.

    Args:
        problem: The task to orchestrate.
        solver: ``"analytic"`` (default) batch-solves every candidate's
            convex subproblem in one vectorized closed-form pass;
            ``"slsqp"`` runs the retained per-candidate SLSQP oracle
            instead (slow — used by the equivalence suite to cross-check
            the analytic engine).

    Each :meth:`plan` call is a self-contained search: its memo tables
    live and die with the orchestrator, so the result depends only on
    the problem and the solver.
    """

    label = "disttrain"

    def __init__(self, problem: OrchestrationProblem,
                 solver: str = "analytic"):
        if solver not in ("analytic", "slsqp"):
            raise ValueError(f"unknown solver {solver!r}")
        self.problem = problem
        self.solver = solver
        gpu = problem.cluster.gpu
        self.memory = MemoryModel(gpu_memory_bytes=gpu.memory_bytes)
        node = problem.cluster.node
        self.collectives = CollectiveModel(
            intra_link=node.intra_link, inter_link=node.inter_link
        )
        # Per-search memo tables: the rounding sweep re-queries the same
        # handful of (module, share) activation footprints and
        # (module, dp) sync terms for hundreds of combos.
        self._feasible_pps: Optional[List[int]] = None
        self._activation_memo: Dict[Tuple[str, float], float] = {}
        self._dp_sync_memo: Dict[Tuple[str, int, int, int], float] = {}

    # ------------------------------------------------------------------ #
    # Public API
    # ------------------------------------------------------------------ #
    def plan(self) -> OrchestrationResult:
        """Run the adaptive search and return the best configuration."""
        with obs.span(
            "orch.plan",
            model=self.problem.mllm.name,
            gpus=self.problem.num_gpus,
            solver=self.solver,
        ):
            try:
                result = self._plan_impl()
            except InfeasibleClusterError:
                obs.count("orch.infeasible")
                raise
            obs.count("orch.plans")
            obs.count("orch.candidates", result.candidates_evaluated)
            obs.count("orch.convex_solves", result.convex_solutions)
            obs.observe("orch.solve_seconds", result.solve_seconds)
            return result

    def _plan_impl(self) -> OrchestrationResult:
        problem = self.problem
        started = time.perf_counter()

        tp_me = self._best_small_module_tp("encoder")
        tp_mg = self._best_small_module_tp("generator")

        search = self._search_arrays(tp_me, tp_mg)
        if search is None:
            raise InfeasibleClusterError(
                "no feasible orchestration found; cluster too small for "
                f"{problem.mllm.name} ({problem.num_gpus} GPUs)",
                num_gpus=problem.num_gpus,
            )
        cost, tp_lm, dp_lm, pp_lm, dp_me, dp_mg, convex_solutions = search
        candidates_evaluated = len(cost)

        # Shortlist, deduplicated by LLM pipeline structure so the
        # refinement stage compares genuinely different configurations
        # rather than ±1 encoder/generator replica variations.
        order = np.argsort(cost, kind="stable")
        seen_structures = set()
        diverse: List[int] = []
        for row in order:
            key = (int(tp_lm[row]), int(pp_lm[row]), int(dp_lm[row]))
            if key in seen_structures:
                continue
            seen_structures.add(key)
            diverse.append(int(row))
            if len(diverse) >= REFINE_TOP_K:
                break

        finalists = [
            self._plans(int(tp_lm[row]), int(dp_lm[row]), int(pp_lm[row]),
                        int(dp_me[row]), int(dp_mg[row]), tp_me, tp_mg)
            for row in diverse
        ]
        simulated = self._refined_batch(finalists)
        rows = np.asarray(diverse)
        dp_sync = self._dp_sync_cost(
            tp_lm[rows], dp_lm[rows], pp_lm[rows], dp_me[rows], dp_mg[rows],
            tp_me, tp_mg,
        )
        best: Optional[Tuple[float, Dict[str, ParallelismPlan], float]] = None
        for plans, sim, sync in zip(finalists, simulated, dp_sync):
            refined = sim + float(sync)
            if best is None or refined < best[0]:
                best = (refined, plans, sim)
        assert best is not None
        _, winner, simulated_seconds = best
        plans = self._trim_small_units(winner)
        if plans != winner:
            # The refinement stage priced the untrimmed plans only.
            simulated_seconds = self._refined_batch([plans])[0]
        return orchestration_result(
            problem, self.label, plans, started,
            candidates_evaluated=candidates_evaluated,
            convex_solutions=convex_solutions,
            simulated=simulated_seconds,
        )

    # ------------------------------------------------------------------ #
    # Batched search
    # ------------------------------------------------------------------ #
    def _plans(
        self, tp_lm: int, dp_lm: int, pp_lm: int, dp_me: int, dp_mg: int,
        tp_me: int, tp_mg: int,
    ) -> Dict[str, ParallelismPlan]:
        problem = self.problem
        M = problem.microbatch_size
        return {
            "encoder": ParallelismPlan(
                tp=tp_me, pp=1, dp=dp_me, microbatch_size=M
            ),
            "llm": ParallelismPlan(
                tp=tp_lm, pp=pp_lm, dp=dp_lm, vpp=problem.vpp,
                ep=problem.llm_ep, microbatch_size=M,
            ),
            "generator": ParallelismPlan(
                tp=tp_mg, pp=1, dp=dp_mg, microbatch_size=M
            ),
        }

    def _search_arrays(self, tp_me: int, tp_mg: int):
        """Enumerate, batch-solve, round, screen, and cost every
        candidate; returns the surviving rounded-plan arrays."""
        problem = self.problem
        M = problem.microbatch_size
        budget = problem.num_gpus
        ep = problem.llm_ep

        # --- candidate enumeration, all up front ---------------------- #
        tp_list: List[int] = []
        dp_list: List[int] = []
        for tp in self._llm_tp_candidates():
            for dp in self._llm_dp_candidates(tp):
                tp_list.append(tp)
                dp_list.append(dp)
        if not tp_list:
            return None
        obs.count("orch.enumerated", len(tp_list))
        tp_lm = np.asarray(tp_list, dtype=np.int64)
        dp_lm = np.asarray(dp_list, dtype=np.int64)
        width = tp_lm * ep

        c_lm_by_tp = {
            tp: module_sample_time(problem, "llm", tp)
            for tp in sorted(set(tp_list))
        }
        c_lm = np.asarray([c_lm_by_tp[tp] for tp in tp_list])
        c_me = module_sample_time(problem, "encoder", tp_me)
        c_mg = module_sample_time(problem, "generator", tp_mg)

        # --- memory floors (exact min-PP grid + feasible-depth snap) -- #
        llm = problem.mllm.llm
        pp_floor = self.memory.min_pp_for_llm(
            llm.param_count(),
            llm.activation_bytes(ModuleWorkload(samples=M)),
            width, dp_lm, problem.frozen.trains("llm"),
            max_pp=llm.num_layers,
        )
        feasible_pps = np.asarray(self._feasible_llm_pps(), dtype=np.int64)
        snap = np.searchsorted(feasible_pps, np.maximum(pp_floor, 1))
        has_pp = (pp_floor > 0) & (snap < len(feasible_pps))
        pp_min = np.where(
            has_pp, feasible_pps[np.minimum(snap, len(feasible_pps) - 1)], 0
        )
        # Encoder and generator run one pipeline stage each.
        x_min = float(tp_me)
        z_min = float(tp_mg)
        y_min = (width * dp_lm * pp_min).astype(float)
        ok = has_pp & (y_min <= budget - 2) & (
            x_min + y_min + z_min <= budget
        )
        sel = np.flatnonzero(ok)
        obs.count("orch.screened_out", len(ok) - len(sel))
        if not len(sel):
            return None
        convex_solutions = int(len(sel))

        # --- the convex subproblem, solved for the whole batch -------- #
        n_mb = problem.global_batch_size // (dp_lm * M)
        warm_x = (dp_lm * M * tp_me) * c_me
        warm_z = (dp_lm * M * tp_mg) * c_mg
        steady_x = (dp_lm * tp_me * M) * c_me
        steady_y = (dp_lm * width * M) * c_lm
        steady_z = (dp_lm * tp_mg * M) * c_mg
        if self.solver == "slsqp":
            oracle = [
                solve_resource_split(
                    warm_x=float(warm_x[i]),
                    warm_z=float(warm_z[i]),
                    steady_x=float(steady_x[i]),
                    steady_y=float(steady_y[i]),
                    steady_z=float(steady_z[i]),
                    num_microbatches=int(n_mb[i]),
                    budget=float(budget),
                    x_min=x_min,
                    y_min=float(y_min[i]),
                    z_min=z_min,
                )
                for i in sel
            ]
            sol_x = np.asarray([s.x for s in oracle])
            sol_y = np.asarray([s.y for s in oracle])
            sol_z = np.asarray([s.z for s in oracle])
        else:
            solution = solve_resource_split_batch(
                warm_x=warm_x[sel],
                warm_z=warm_z[sel],
                steady_x=steady_x[sel],
                steady_y=steady_y[sel],
                steady_z=steady_z[sel],
                num_microbatches=n_mb[sel],
                budget=float(budget),
                x_min=x_min,
                y_min=y_min[sel],
                z_min=z_min,
            )
            sol_x, sol_y, sol_z = solution.x, solution.y, solution.z

        # --- batch rounding: 2 pipeline depths x 2 dp each side ------- #
        per_pipeline = (width[sel] * dp_lm[sel]).astype(float)
        pp_target = sol_y / per_pipeline
        fp = feasible_pps.astype(float)
        dist = np.abs(fp[None, :] - pp_target[:, None])
        dist = np.where(
            fp[None, :] <= (pp_target * 2 + 1)[:, None], dist, np.inf
        )
        pp_order = np.argsort(dist, axis=1, kind="stable")[:, :2]
        pp_opts = feasible_pps[pp_order]
        pp_valid = np.take_along_axis(
            np.isfinite(dist), pp_order, axis=1
        )
        if pp_opts.shape[1] < 2:
            pad = np.zeros((len(sel), 2 - pp_opts.shape[1]), dtype=np.int64)
            pp_opts = np.concatenate([pp_opts, pad], axis=1)
            pp_valid = np.concatenate([pp_valid, pad.astype(bool)], axis=1)

        dp_me_lo = np.maximum(1, (sol_x / tp_me).astype(np.int64))
        dp_mg_lo = np.maximum(1, (sol_z / tp_mg).astype(np.int64))

        # Combo grid in the scalar search's nested-loop order:
        # pipeline depth (by distance) x dp_me {lo, lo+1} x dp_mg
        # {lo, lo+1} — the stable cost sort then ties out identically.
        pp_c = np.repeat(pp_opts, 4, axis=1).reshape(-1)
        valid = np.repeat(pp_valid, 4, axis=1).reshape(-1)
        dp_me_c = np.tile(
            np.repeat(np.stack([dp_me_lo, dp_me_lo + 1], axis=1), 2,
                      axis=1),
            (1, 2),
        ).reshape(-1)
        dp_mg_c = np.tile(
            np.stack([dp_mg_lo, dp_mg_lo + 1], axis=1), (1, 4)
        ).reshape(-1)
        rows = np.repeat(np.arange(len(sel)), 8)

        width_rows = width[sel][rows]
        dp_lm_rows = dp_lm[sel][rows]
        x = dp_me_c * tp_me
        y = width_rows * dp_lm_rows * pp_c
        z = dp_mg_c * tp_mg
        valid &= (x + y + z) <= budget
        valid &= self._memory_ok(
            width_rows, dp_lm_rows, pp_c, dp_me_c, dp_mg_c, tp_me, tp_mg
        )
        keep = np.flatnonzero(valid)
        if not len(keep):
            return None
        rows = rows[keep]
        cand_idx = sel[rows]
        pp_c, dp_me_c, dp_mg_c = pp_c[keep], dp_me_c[keep], dp_mg_c[keep]
        x, y, z = (
            x[keep].astype(float),
            y[keep].astype(float),
            z[keep].astype(float),
        )

        # --- exact objective + DP sync, vectorized -------------------- #
        breakdown = iteration_breakdown(
            problem, dp_lm[cand_idx], width[cand_idx], tp_me, tp_mg,
            c_lm[cand_idx], c_me, c_mg, x, y, z,
        )
        cost = breakdown.total + self._dp_sync_cost(
            tp_lm[cand_idx], dp_lm[cand_idx], pp_c, dp_me_c, dp_mg_c,
            tp_me, tp_mg,
        )
        return (
            cost, tp_lm[cand_idx], dp_lm[cand_idx], pp_c, dp_me_c, dp_mg_c,
            convex_solutions,
        )

    def _memory_ok(
        self, width_lm, dp_lm, pp_lm, dp_me, dp_mg, tp_me, tp_mg
    ) -> np.ndarray:
        """Whether each plan fits every module's memory, elementwise over
        arrays of its degrees (scalars broadcast)."""
        problem = self.problem
        frozen = problem.frozen
        M = problem.microbatch_size
        llm = problem.mllm.llm
        # Encoder and generator run one stage each, so the first encoder
        # stage pins the whole pipeline's depth of microbatches, and so
        # does the first LLM stage.
        pipeline_depth = pp_lm + 2
        ok = self.memory.fits(
            llm.param_count(),
            llm.activation_bytes(ModuleWorkload(samples=M)),
            width_lm, pp_lm, dp_lm, frozen.trains("llm"),
            in_flight=pipeline_depth,
        )
        for name, tp, dp in (
            ("encoder", tp_me, dp_me),
            ("generator", tp_mg, dp_mg),
        ):
            share = np.maximum(1.0, dp_lm * M / dp)
            ok = ok & self.memory.fits(
                problem.mllm.module(name).param_count(),
                self._module_activation(name, share),
                tp, 1, dp, frozen.trains(name),
                in_flight=pipeline_depth,
            )
        return ok

    def _module_activation(self, name: str, shares) -> np.ndarray:
        """Per-combo activation footprints, memoized per distinct
        workload share (the expensive model walk happens once)."""
        problem = self.problem
        module = problem.mllm.module(name)
        per_sample = problem.per_sample_workload(name)
        memo = self._activation_memo
        # Distinct shares, ascending; cheaper than np.unique on the few
        # rows a trim screens.
        uniq = np.sort(shares, axis=None)
        uniq = uniq[np.concatenate(([True], uniq[1:] != uniq[:-1]))]
        values = np.empty(len(uniq))
        for j, share in enumerate(uniq):
            key = (name, float(share))
            cached = memo.get(key)
            if cached is None:
                cached = module.activation_bytes(
                    per_sample.scaled(float(share))
                )
                memo[key] = cached
            values[j] = cached
        return values[np.searchsorted(uniq, shares)]

    def _dp_sync_term(self, name: str, tp: int, pp: int, dp: int) -> float:
        """One module's exposed DP sync cost, memoized (see
        :meth:`_dp_sync_cost`)."""
        key = (name, tp, pp, dp)
        cached = self._dp_sync_memo.get(key)
        if cached is None:
            cached = self.collectives.dp_sync_exposed(
                self.problem.mllm.module(name).param_count(), tp, pp, dp
            )
            self._dp_sync_memo[key] = cached
        return cached

    def _dp_sync_cost(
        self, tp_lm, dp_lm, pp_lm, dp_me, dp_mg, tp_me: int, tp_mg: int
    ) -> np.ndarray:
        """Exposed gradient reduce-scatter + param allgather time of each
        plan, elementwise over integer arrays of its degrees; the trained
        modules' terms add up in encoder, llm, generator order.

        Not part of Eqs. 1-2 (the paper models DP communication as
        volume/bandwidth separately); added to the integer evaluation so
        extreme-DP configurations pay their synchronization bill.
        """
        one = np.ones_like(pp_lm)
        degrees = {
            "encoder": (tp_me * one, one, dp_me),
            "llm": (tp_lm, pp_lm, dp_lm),
            "generator": (tp_mg * one, one, dp_mg),
        }
        total = np.zeros(len(pp_lm))
        for name in MODULE_NAMES:
            if self.problem.frozen.trains(name):
                columns = (d.tolist() for d in degrees[name])
                total = total + np.asarray([
                    self._dp_sync_term(name, tp, pp, dp)
                    for tp, pp, dp in zip(*columns)
                ])
        return total

    # ------------------------------------------------------------------ #
    # Candidate enumeration
    # ------------------------------------------------------------------ #
    def _llm_tp_candidates(self) -> List[int]:
        node_gpus = self.problem.cluster.gpus_per_node
        return [
            tp for tp in self.problem.tp_candidates if tp <= node_gpus
        ]

    def _llm_dp_candidates(self, tp_lm: int) -> List[int]:
        problem = self.problem
        per_iter_samples = problem.global_batch_size // problem.microbatch_size
        budget = problem.num_gpus
        result = []
        for dp in divisors(per_iter_samples):
            # Leave at least one GPU each for encoder and generator.
            if tp_lm * dp <= budget - 2:
                result.append(dp)
        return result

    def _best_small_module_tp(self, name: str) -> int:
        """Cheapest TP for the encoder/generator: minimize GPU-seconds
        per sample ``tp * C(tp)`` (replication beats TP for small
        modules unless memory forces sharding)."""
        problem = self.problem
        best_tp, best_score = 1, float("inf")
        for tp in self._llm_tp_candidates():
            score = tp * module_sample_time(problem, name, tp)
            if score < best_score and self._small_module_fits(name, tp):
                best_tp, best_score = tp, score
        return best_tp

    def _small_module_fits(self, name: str, tp: int) -> bool:
        problem = self.problem
        module = problem.mllm.module(name)
        workload = problem.per_sample_workload(name)
        return self.memory.fits(
            module.param_count(),
            module.activation_bytes(workload),
            tp=tp,
            pp=1,
            dp=1,
            trainable=problem.frozen.trains(name),
            in_flight=4,
        )

    def _feasible_llm_pps(self) -> List[int]:
        """Pipeline depths that split the LLM into equal stages
        (computed once per search — the rounding sweep reads it for
        every candidate)."""
        if self._feasible_pps is None:
            layers = self.problem.mllm.llm.num_layers
            chunk = self.problem.vpp
            self._feasible_pps = [
                pp
                for pp in divisors(layers)
                if layers % (pp * chunk) == 0 or chunk == 1
            ]
        return self._feasible_pps

    # ------------------------------------------------------------------ #
    # Winner post-processing
    # ------------------------------------------------------------------ #
    def _trim_small_units(
        self, plans: Dict[str, ParallelismPlan]
    ) -> Dict[str, ParallelismPlan]:
        """Shrink encoder/generator allocations to the minimum that keeps
        them off the critical path.

        The convex split hands every module its waterfilled share, but
        once the LLM stage is the steady-phase bottleneck, extra
        encoder/generator replicas only idle. DistTrain "intentionally
        allocates fewer resources ... because adding more GPUs yields no
        further improvement", freeing them for other jobs (section 7.1).
        """
        problem = self.problem
        M = problem.microbatch_size
        llm = plans["llm"]
        dp_lm = llm.dp

        c_lm = module_sample_time(problem, "llm", llm.tp)
        t_lm = c_lm * M / llm.pp  # bottleneck stage time

        trimmed = dict(plans)
        for name in ("encoder", "generator"):
            plan = plans[name]
            c = module_sample_time(problem, name, plan.tp)
            # Smallest dp whose *average* stage time stays well below the
            # LLM's (the skewed image distribution makes individual
            # microbatches ~1.5-2x the mean, so leave generous headroom)
            # while still fitting in memory. Walk down one replica at a
            # time while the stage stays fast, then screen the memory of
            # every step walked in one call; stop at the first failure.
            dp = plan.dp
            while dp > 1 and (
                dp_lm * M * c / ((dp - 1) * plan.pp) <= 0.6 * t_lm
            ):
                dp -= 1
            if dp < plan.dp:
                steps = np.arange(plan.dp - 1, dp - 1, -1)
                fits = self._memory_ok(
                    llm.tp * llm.ep, dp_lm, llm.pp,
                    steps if name == "encoder" else plans["encoder"].dp,
                    steps if name == "generator" else plans["generator"].dp,
                    plans["encoder"].tp, plans["generator"].tp,
                )
                kept = len(fits) if fits.all() else int(fits.argmin())
                dp = plan.dp - kept
            trimmed[name] = plan.with_(dp=dp)
        return trimmed

    def _refined_batch(
        self, plans_list: Sequence[Dict[str, ParallelismPlan]]
    ) -> List[float]:
        """Refinement makespans of ``plans_list``, one batched kernel
        pass (:func:`simulated_pipeline_seconds_batch`)."""
        obs.count("orch.refine_simulated", len(plans_list))
        return simulated_pipeline_seconds_batch(
            self.problem, self.collectives, plans_list
        )
