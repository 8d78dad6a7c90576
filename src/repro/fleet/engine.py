"""Shared-cluster fleet simulation: N jobs, one event clock.

:class:`FleetEngine` drives one :class:`~repro.fleet.job.JobSimulator`
per tenant in global clock order, so job timelines interleave exactly
as they would on a real shared cluster. Scheduling decision points —
job arrivals, job completions, preemption resumes — invoke the configured
:class:`~repro.fleet.policies.SchedulingPolicy` and apply its targets
through the :class:`~repro.cluster.allocation.GPUAllocator`: shrinks
and preemptions release capacity first, then grows and starts consume
it, with every transition preserving the allocator's conservation
invariant.

The engine does not tick iterations. Only some steps reach outside
their own job — failures and outages, re-growths and resizes, and the
final iteration (a completion decision) — so the event heap is keyed by
each running tenant's *next segment end*: the ``(start clock, arrival
order)`` of its next such step, however many checkpoints lie before it
(:meth:`~repro.fleet.job.JobSimulator.peek_segment`). Arrivals sort
first on ties. Popping a tenant advances its plain iterations in closed
form (:meth:`~repro.fleet.job.JobSimulator.advance_until`) and runs the
one irregular step, so irregular steps and decisions keep exactly the
global order of a step-by-step walk; a tenant a decision resizes or
preempts is first brought to its boundary at that decision, by cutting
the walk its peek kept. Same-task tenants share one
plan/simulator/prepared-batch build through the process-wide
:data:`~repro.fleet.job.STATE_CACHE`, and a peek prices the straggler
evaluations its whole segment lacks in one fused kernel sweep, so every
heap key is exact. Every shared or fused value is bit-identical
to what each tenant's own step would compute; the golden fleet fixtures
(``tests/fleet/golden``) pin whole :class:`FleetResult`\\ s across every
policy and scenario pack. The whole fleet is one event loop in the
calling process over one set of process-wide caches.

Failure/repair capacity stays **job-local** (a repaired node returns to
the job that lost it, as production schedulers do), so a single-job
fleet reproduces the standalone
:func:`~repro.scenarios.engine.run_scenario` timeline byte for byte
— the equivalence suite pins metrics, trajectories, and the realized
event trace.

Iterations are non-preemptible, and at a decision every running job it
reshapes sits at an iteration boundary on its own clock, at most one
unit of work past the decision time. Reshapes of *running* jobs therefore
land at the job's own boundary (no simulated time is lost or invented),
while seats of queued/preempted jobs land at the decision time; the
discrepancy is bounded by one iteration and keeps the allocator's books
equal to every job's physical size at all times.

All jobs share the process-wide orchestration
:data:`~repro.orchestration.plancache.PLAN_CACHE`, so co-tenant replans
of the same task at the same slice size are solved once per process.
Per-job hit/miss counters surface on each
:class:`~repro.scenarios.result.ScenarioResult` and aggregate on the
:class:`FleetResult`; they count against the signatures solved in the
current :meth:`FleetEngine.run`, one set shared by all tenants, so a
run reports the same counters in a cold or a warm process.
"""

from __future__ import annotations

import heapq
import logging
import math
from collections import deque
from dataclasses import dataclass, fields
from typing import Any, Deque, Dict, List, Optional, Tuple

import numpy as np

from repro.cluster.allocation import GPUAllocator
from repro.fleet.job import JobSimulator, STATE_CACHE
from repro.obs import instrument as obs
from repro.fleet.policies import JobView, SchedulingPolicy, make_policy
from repro.fleet.spec import FleetJobSpec, FleetSpec
from repro.numerics import fold_sum
from repro.scenarios.result import ScenarioResult

logger = logging.getLogger(__name__)


class FleetSchedulingError(RuntimeError):
    """The fleet can make no further progress (e.g. a queued job can
    never be granted a feasible slice)."""


@dataclass
class FleetJobRecord:
    """One tenant's fate, for reports and ResultFrames."""

    name: str
    demand_gpus: int
    priority: int
    arrival_s: float
    start_s: float
    completion_s: float
    queue_seconds: float
    preemptions: int
    result: ScenarioResult
    #: Zero-event runtime of the job *alone at its full demand* — the
    #: fleet-goodput numerator. The per-job ``result.ideal_seconds`` is
    #: priced at the initially granted slice instead (matching the
    #: standalone scenario semantics), which can understate the ideal
    #: for a job admitted on a small share that later grows. When the
    #: cluster-capped demand itself cannot be orchestrated, the ideal
    #: is priced at the largest feasible node-granular size below it
    #: (the best private cluster the job could actually use), falling
    #: back to ``result.ideal_seconds`` only when no size is feasible.
    ideal_demand_seconds: float = 0.0
    #: Workload-class label from the job spec (pack job mixes).
    job_class: str = ""
    #: Absolute completion deadline, resolved from the spec's
    #: ``deadline_s`` or ``slo_factor`` (None = no deadline).
    deadline_s: Optional[float] = None

    @property
    def jct_seconds(self) -> float:
        """Job completion time: arrival to retained final iteration."""
        return self.completion_s - self.arrival_s

    @property
    def deadline_met(self) -> Optional[bool]:
        """Whether the job finished by its deadline (None: no SLO)."""
        if self.deadline_s is None:
            return None
        return self.completion_s <= self.deadline_s

    def row(self) -> Dict[str, Any]:
        """Flat per-job report row."""
        return {
            "job": self.name,
            "demand_gpus": self.demand_gpus,
            "priority": self.priority,
            "arrival_s": self.arrival_s,
            "start_s": self.start_s,
            "jct_seconds": self.jct_seconds,
            "queue_seconds": self.queue_seconds,
            "goodput": self.result.goodput,
            "num_failures": self.result.num_failures,
            "num_replans": self.result.num_replans,
            "preemptions": self.preemptions,
            "min_gpus": self.result.min_gpus,
            "mean_mfu": self.result.mean_mfu,
            "plan_cache_hits": self.result.plan_cache_hits,
            "plan_cache_misses": self.result.plan_cache_misses,
            "job_class": self.job_class,
            "deadline_s": self.deadline_s,
            "deadline_met": self.deadline_met,
        }

    def to_dict(self) -> Dict[str, Any]:
        """JSON-safe dict round-tripping losslessly via
        :meth:`from_dict` (unlike :meth:`row`, which flattens): every
        field in declaration order, the result as its own dict."""
        payload = {f.name: getattr(self, f.name) for f in fields(self)}
        payload["result"] = self.result.to_dict()
        return payload

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "FleetJobRecord":
        payload = dict(data)
        payload["result"] = ScenarioResult.from_dict(payload["result"])
        return cls(**payload)


@dataclass
class FleetResult:
    """Outcome of one shared-cluster fleet run."""

    policy: str
    total_gpus: int
    records: List[FleetJobRecord]

    @property
    def makespan_seconds(self) -> float:
        """Fleet wall-clock from t=0 to the last job's completion."""
        return max((r.completion_s for r in self.records), default=0.0)

    @property
    def fleet_goodput(self) -> float:
        """Aggregate demand-size ideal work over aggregate job time: how
        close the fleet came to giving every tenant its full-demand,
        zero-dynamics, zero-queueing experience. 1.0 means nobody would
        have done better on a private cluster."""
        total_jct = fold_sum(r.jct_seconds for r in self.records)
        if total_jct <= 0:
            return 1.0
        ideal = fold_sum(r.ideal_demand_seconds for r in self.records)
        return ideal / total_jct

    @property
    def utilization(self) -> float:
        """GPU-seconds spent computing over GPU-seconds the cluster
        offered across the makespan."""
        span = self.makespan_seconds
        if span <= 0 or self.total_gpus <= 0:
            return 0.0
        busy = fold_sum(r.result.gpu_seconds for r in self.records)
        return busy / (self.total_gpus * span)

    @property
    def mean_jct_seconds(self) -> float:
        return float(np.mean([r.jct_seconds for r in self.records]))

    @property
    def total_preemptions(self) -> int:
        return sum(r.preemptions for r in self.records)

    @property
    def total_replans(self) -> int:
        return sum(r.result.num_replans for r in self.records)

    @property
    def plan_cache_hits(self) -> int:
        return sum(r.result.plan_cache_hits for r in self.records)

    @property
    def plan_cache_misses(self) -> int:
        return sum(r.result.plan_cache_misses for r in self.records)

    @property
    def deadline_misses(self) -> int:
        """Jobs that finished after their deadline."""
        return sum(1 for r in self.records if r.deadline_met is False)

    @property
    def slo_attainment(self) -> float:
        """Fraction of deadline-carrying jobs that met their deadline.

        1.0 when no job carries a deadline — an SLO-free fleet attains
        everything it promised.
        """
        with_deadline = [
            r for r in self.records if r.deadline_s is not None
        ]
        if not with_deadline:
            return 1.0
        met = sum(1 for r in with_deadline if r.deadline_met)
        return met / len(with_deadline)

    def metrics(self) -> Dict[str, float]:
        """Flat metric row for campaign records / ResultFrame."""
        records = self.records
        span = self.makespan_seconds
        total_tokens = fold_sum(
            r.result.effective_tokens_per_s * r.result.total_seconds
            for r in records
        )
        return {
            "fleet_goodput": self.fleet_goodput,
            "utilization": self.utilization,
            "makespan_seconds": span,
            "mean_jct_seconds": self.mean_jct_seconds,
            "max_jct_seconds": max(
                (r.jct_seconds for r in records), default=0.0
            ),
            "mean_queue_seconds": float(
                np.mean([r.queue_seconds for r in records])
            ),
            "num_jobs": float(len(records)),
            "num_failures": float(
                sum(r.result.num_failures for r in records)
            ),
            "num_replans": float(self.total_replans),
            "preemptions": float(self.total_preemptions),
            "fleet_tokens_per_s": (
                total_tokens / span if span > 0 else 0.0
            ),
            "mean_goodput": float(
                np.mean([r.result.goodput for r in records])
            ),
            "mean_mfu": float(
                np.mean([r.result.mean_mfu for r in records])
            ),
            "num_gpus": float(self.total_gpus),
            "slo_attainment": self.slo_attainment,
            "deadline_misses": float(self.deadline_misses),
            "slo_jobs": float(
                sum(1 for r in records if r.deadline_s is not None)
            ),
        }

    def to_json(self, path: Optional[str] = None) -> str:
        """Serialize the full result (every record, trajectory, and
        event trace) losslessly; see :meth:`from_json`."""
        import json

        text = json.dumps(
            {
                "policy": self.policy,
                "total_gpus": self.total_gpus,
                "records": [r.to_dict() for r in self.records],
            },
            indent=1,
        )
        if path is not None:
            from pathlib import Path

            Path(path).write_text(text + "\n", encoding="utf-8")
        return text

    @classmethod
    def from_json(cls, source: str) -> "FleetResult":
        """Parse a result from a JSON string or a file path."""
        import json
        import os

        text = source
        if not source.lstrip().startswith("{") and os.path.exists(source):
            with open(source, "r", encoding="utf-8") as fh:
                text = fh.read()
        data = json.loads(text)
        return cls(
            policy=data["policy"],
            total_gpus=data["total_gpus"],
            records=[
                FleetJobRecord.from_dict(r) for r in data["records"]
            ],
        )


# --------------------------------------------------------------------- #
# Engine internals
# --------------------------------------------------------------------- #
_PENDING = "pending"   # not yet arrived
_QUEUED = "queued"     # arrived, never started
_RUNNING = "running"
_PAUSED = "paused"     # preempted, awaiting resume
_DONE = "done"


class _Tenant:
    """Mutable per-job scheduling state."""

    def __init__(self, spec: FleetJobSpec, order: int, solved_plans: set):
        self.spec = spec
        self.order = order
        self.sim = JobSimulator(
            spec.config,
            spec.scenario,
            solved_plans=solved_plans,
            name=spec.name,
        )
        self.reset()

    def reset(self) -> None:
        """Forget a previous run's scheduling state."""
        self.state = _PENDING
        self.start_s: Optional[float] = None
        self.completion_s: Optional[float] = None
        self.queue_since: float = self.spec.arrival_s
        self.queue_seconds = 0.0
        #: Cached :meth:`~repro.fleet.job.JobSimulator.peek_segment` of
        #: the current segment; None once the simulator has moved on.
        self.segment: Optional[Tuple[float, bool]] = None
        self._view: Optional[JobView] = None

    @property
    def name(self) -> str:
        return self.spec.name

    def view(self, held: int) -> JobView:
        """The policy's view of the tenant, rebuilt only when its held
        count or running flag changed (a view is frozen)."""
        running = self.state == _RUNNING
        view = self._view
        if (
            view is None
            or view.allocated_gpus != held
            or view.running != running
        ):
            view = self._view = JobView(
                name=self.name,
                demand_gpus=self.spec.demand_gpus,
                min_gpus=self.spec.floor_gpus,
                priority=self.spec.priority,
                arrival_order=self.order,
                allocated_gpus=held,
                running=running,
            )
        return view


class FleetEngine:
    """Simulates a :class:`FleetSpec` workload on its shared cluster.

    Args:
        spec: Cluster, policy, and tenant jobs.
    """

    def __init__(self, spec: FleetSpec):
        self.spec = spec
        self.policy: SchedulingPolicy = make_policy(spec.policy)
        self.allocator = GPUAllocator(spec.cluster)
        #: Planning signatures solved in the current run, shared by
        #: every tenant's plan hit/miss counting.
        self._solved_plans: set = set()
        self._tenants = [
            _Tenant(job, order, self._solved_plans)
            for order, job in enumerate(spec.jobs)
        ]
        #: Per-run jobstate (``STATE_CACHE``) accounting — populated by
        #: :meth:`run`.
        self.state_cache_stats: Dict[str, int] = {}
        #: Latest scheduling-decision clock (arrival, completion, or
        #: preemption time) — the wedged-fleet reschedule must not seat
        #: a waiter earlier than the decision that freed its capacity.
        self._last_decision = 0.0
        #: Decision epoch: bumped by every policy round so the event
        #: loop knows its heap may hold stale clocks/states.
        self._decisions = 0
        #: ``(clock, arrival order)`` of the event behind the current
        #: decision: an arrival sorts before every tenant (order -1), a
        #: completion sits at its final step's start. A running tenant
        #: is brought to its first boundary past this key before the
        #: decision reads its clock (:meth:`_catch_up`).
        self._decision_key: Tuple[float, int] = (0.0, -1)

    # ------------------------------------------------------------------ #
    def run(self) -> FleetResult:
        """Drive every tenant to completion on the shared cluster."""
        # The pack attribute rides the span only when a pack is set, so
        # pack-free golden obs traces stay byte-identical.
        span_extra = (
            {"pack": self.spec.pack} if self.spec.pack else {}
        )
        with obs.span(
            "fleet.run",
            policy=self.policy.name,
            jobs=len(self._tenants),
            gpus=self.allocator.total_gpus,
            **span_extra,
        ):
            result = self._run_impl()
        logger.info(
            "fleet run complete: %d jobs under %s on %d GPUs",
            len(self._tenants), self.policy.name,
            self.allocator.total_gpus,
        )
        return result

    def _snapshot_state_cache(self, baseline: Tuple[int, int]) -> None:
        hits, misses = STATE_CACHE.stats()
        self.state_cache_stats = {
            "hits": hits - baseline[0],
            "misses": misses - baseline[1],
            "size": len(STATE_CACHE),
            "maxsize": STATE_CACHE.maxsize,
        }

    def _run_impl(self) -> FleetResult:
        # A second run of one engine starts from scratch, not from the
        # first run's queue times, completion clocks and solved plans.
        self._solved_plans.clear()
        for tenant in self._tenants:
            tenant.reset()
        self.allocator = GPUAllocator(self.spec.cluster)
        # Consumed front-first (popleft) as arrivals are admitted — a
        # thousand-job arrival burst admits in O(1) per job.
        pending: Deque[_Tenant] = deque(sorted(
            self._tenants, key=lambda t: (t.spec.arrival_s, t.order)
        ))
        self._last_decision = 0.0
        baseline = STATE_CACHE.stats()
        self._event_loop(pending)
        self._snapshot_state_cache(baseline)
        return self._records()

    def _event_loop(self, pending: Deque[_Tenant]) -> None:
        """The indexed event loop over segment ends.

        Only some steps touch anything outside their own job: a failure
        or outage, a re-growth or resize (allocator books, plan and
        state caches, the policy), and a job's final iteration (a
        completion decision). Every other iteration only advances its
        job's own clock, so its global order does not matter. Running
        tenants therefore sit on a heap keyed by the ``(start clock,
        arrival order)`` of the step that ends their current segment
        (:meth:`~repro.fleet.job.JobSimulator.peek_segment`); arrivals
        sort first on ties. A segment runs across any number of
        checkpoints: a checkpoint is a plain iteration unless it must
        wait for the previous snapshot's upload. Popping a tenant
        advances its plain iterations in closed form and, if the segment
        ends in an irregular step, runs that one step. The advance
        applies the walk the peek kept unless a decision has moved the
        tenant since, so each segment is walked once, and a peek copies
        no checkpointer; a decision that resizes or preempts a tenant
        brings it to its boundary by cutting that walk
        (:meth:`_catch_up`). Irregular steps and
        decisions therefore happen in exactly the global order of the
        step-by-step walk — the order that fixes per-job plan-cache
        tallies and allocator books. Every key is exact: a peek prices
        the straggler evaluations its segment lacks before it returns.

        Any policy round (``_reschedule``) bumps the decision epoch and
        the heap is rebuilt once from the surviving running set; the
        segments of tenants the round did not touch stay cached, and so
        do their policy views (:meth:`_Tenant.view`).
        """
        heap: List[Tuple[float, int, _Tenant]] = []
        epoch = -1
        while True:
            if epoch != self._decisions:
                heap = [
                    (self._segment(t)[0], t.order, t)
                    for t in self._tenants
                    if t.state == _RUNNING
                ]
                heapq.heapify(heap)
                epoch = self._decisions
            next_arrival = pending[0].spec.arrival_s if pending else None

            if heap:
                clock, order, tenant = heap[0]
                if next_arrival is not None and next_arrival <= clock:
                    self._arrive(pending, next_arrival)
                    continue
                _, irregular = tenant.segment
                heapq.heappop(heap)
                tenant.sim.advance_until(clock)
                tenant.segment = None
                if irregular:
                    self._step(tenant, clock)
                if epoch == self._decisions and tenant.state == _RUNNING:
                    heapq.heappush(
                        heap, (self._segment(tenant)[0], order, tenant)
                    )
                continue

            if next_arrival is not None:
                self._arrive(pending, next_arrival)
                continue

            if not self._unwedge():
                break

    @staticmethod
    def _segment(tenant: _Tenant) -> Tuple[float, bool]:
        """The tenant's cached current segment."""
        if tenant.segment is None:
            tenant.segment = tenant.sim.peek_segment()
        return tenant.segment

    def _arrive(self, pending: Deque[_Tenant], now: float) -> None:
        self._admit(pending, now)
        self._decision_key = (now, -1)
        self._reschedule(now)

    def _catch_up(self, tenant: _Tenant) -> None:
        """Bring a running tenant to where the step-by-step walk would
        have it at the current decision: the first boundary whose
        ``(clock, arrival order)`` lies past the decision key. Only
        plain iterations lie before it — the tenant's own segment end
        sorts after the decision, or the decision would not be next, so
        the advance cuts the walk the tenant's peek kept."""
        clock, order = self._decision_key
        if tenant.order < order:
            # Equal clocks: the earlier arrival stepped first.
            clock = math.nextafter(clock, math.inf)
        tenant.sim.advance_until(clock)

    def _unwedge(self) -> bool:
        """Nothing runs and nothing arrives: seat a waiter or finish.

        Returns False when the fleet is drained. The reschedule runs at
        the *latest* decision clock — completions and preemptions update
        it too (see :meth:`_reschedule`), so a waiter seated here can
        never be granted a start time earlier than the event that freed
        its capacity.
        """
        waiting = [
            t for t in self._tenants if t.state in (_QUEUED, _PAUSED)
        ]
        if not waiting:
            return False
        self._decision_key = (self._last_decision, -1)
        self._reschedule(self._last_decision)
        if not any(t.state == _RUNNING for t in self._tenants):
            names = sorted(t.name for t in waiting)
            raise FleetSchedulingError(
                f"fleet deadlock: jobs {names} cannot be granted a "
                f"feasible slice ({self.allocator.free_gpus} GPUs "
                f"free of {self.allocator.total_gpus})"
            )
        return True

    def _records(self) -> FleetResult:
        records = []
        node = self.allocator.gpus_per_node
        for t in sorted(self._tenants, key=lambda t: t.order):
            assert t.completion_s is not None and t.start_s is not None
            result = t.sim.finish()  # snapshots hit/miss counters first
            demand = min(t.spec.demand_gpus, self.allocator.total_gpus)
            # The private-cluster ideal: the largest node-granular size
            # at-or-below the capped demand the orchestrator can
            # actually plan. Walking down matters when the cap lands on
            # an infeasible size — pricing the ideal at the granted
            # slice there would skew per-job slowdown (a job squeezed
            # to a sliver would look like it ran at its ideal).
            size = demand
            while size >= node and not t.sim.feasible(size):
                size -= node
            if size >= node:
                ideal_demand = t.sim.ideal_seconds_at(size)
            else:
                # No feasible size at all below the cap (the demand
                # config itself must have been granted to finish):
                # fall back to the ideal at the initially granted
                # slice rather than discarding the finished simulation.
                ideal_demand = result.ideal_seconds
            # Deadline resolution: an absolute deadline wins; otherwise
            # a relative SLO prices the deadline off the demand-size
            # ideal (the zero-event runtime the tenant was promised).
            deadline = t.spec.deadline_s
            if deadline is None and t.spec.slo_factor is not None:
                deadline = (
                    t.spec.arrival_s + t.spec.slo_factor * ideal_demand
                )
            records.append(
                FleetJobRecord(
                    name=t.name,
                    demand_gpus=t.spec.demand_gpus,
                    priority=t.spec.priority,
                    arrival_s=t.spec.arrival_s,
                    start_s=t.start_s,
                    completion_s=t.completion_s,
                    queue_seconds=t.queue_seconds,
                    preemptions=result.preemptions,
                    result=result,
                    ideal_demand_seconds=ideal_demand,
                    job_class=t.spec.job_class,
                    deadline_s=deadline,
                )
            )
        return FleetResult(
            policy=self.policy.name,
            total_gpus=self.allocator.total_gpus,
            records=records,
        )

    # ------------------------------------------------------------------ #
    # Stepping and event mirroring
    # ------------------------------------------------------------------ #
    def _step(self, tenant: _Tenant, start: float) -> None:
        """Run the irregular step starting at clock ``start``."""
        tenant.sim.step()
        for event in tenant.sim.drain_fleet_events():
            self._mirror(tenant, event)
        if tenant.sim.done:
            self._decision_key = (start, tenant.order)
            tenant.state = _DONE
            tenant.completion_s = tenant.sim.clock
            obs.event(
                "fleet.complete", job=tenant.name, t=tenant.sim.clock
            )
            obs.count("fleet.completions")
            logger.debug(
                "%s: completed at t=%.1fs", tenant.name, tenant.sim.clock
            )
            self.allocator.release_all(tenant.name)
            self._reschedule(tenant.sim.clock)

    def _mirror(self, tenant: _Tenant, event: Tuple[Any, ...]) -> None:
        """Mirror a job-local capacity change into the allocator."""
        kind = event[0]
        if kind == "failure":
            _, _, from_gpus, to_gpus, _ = event
            if to_gpus < from_gpus:
                # Elastic shrink: the dead nodes enter repair, reserved
                # for this job. (from == to means the job restarted on
                # replacement capacity at unchanged size — modeled as an
                # in-place swap, no accounting change.)
                self.allocator.mark_down(tenant.name, from_gpus - to_gpus)
        elif kind in ("grow", "resize"):
            _, from_gpus, to_gpus, _ = event
            self._account_delta(tenant, to_gpus - from_gpus)

    def _account_delta(self, tenant: _Tenant, delta: int) -> None:
        """Book a size change: repaired capacity first, then free."""
        if delta > 0:
            repaired = min(delta, self.allocator.down_for(tenant.name))
            if repaired:
                self.allocator.mark_repaired(tenant.name, repaired)
            if delta - repaired:
                self.allocator.carve(tenant.name, delta - repaired)
        elif delta < 0:
            self.allocator.release(tenant.name, -delta)

    # ------------------------------------------------------------------ #
    # Decision points
    # ------------------------------------------------------------------ #
    def _admit(self, pending: Deque[_Tenant], now: float) -> None:
        while pending and pending[0].spec.arrival_s <= now:
            tenant = pending.popleft()
            tenant.state = _QUEUED
            tenant.queue_since = tenant.spec.arrival_s
            obs.event(
                "fleet.admit", job=tenant.name,
                t=tenant.spec.arrival_s,
                demand=tenant.spec.demand_gpus,
            )

    def _reschedule(self, now: float) -> None:
        # Every policy round is a scheduling decision: remember the
        # latest decision clock (completions and preemptions route
        # through here too — the wedged-fleet reschedule replays at
        # this clock, never an older arrival's), and bump the epoch so
        # the event loop rebuilds its heap.
        self._last_decision = max(self._last_decision, now)
        self._decisions += 1
        # A resize can return a tenant's under-repair capacity to the
        # shared pool, which the targets already computed cannot see —
        # iterate to a fixed point (bounded: each round either frees
        # repair capacity, which can happen at most once per tenant, or
        # terminates the loop).
        for _ in range(len(self._tenants) + 1):
            freed = self._reschedule_once(now)
            if not freed:
                return

    def _reschedule_once(self, now: float) -> bool:
        """One policy round; True if repair capacity was released."""
        # ``_tenants`` is in arrival order, so ``active`` is FIFO.
        active = [
            t for t in self._tenants
            if t.state in (_QUEUED, _RUNNING, _PAUSED)
        ]
        if not active:
            return False
        self._freed_repairs = False
        # Held counts are read once: pass 1 changes only the tenants it
        # shrinks or preempts, and pass 2 grows only tenants whose
        # target lies above their count, which pass 1 left alone.
        held = [self.allocator.held_by(t.name) for t in active]
        views = [t.view(h) for t, h in zip(active, held)]
        targets = self.policy.targets(now, views, self.allocator)

        # Pass 1 — shrink running jobs and preempt: frees capacity.
        for tenant, count in zip(active, held):
            if tenant.state != _RUNNING:
                continue
            target = targets.get(tenant.name, count)
            if target >= count:
                continue
            if target == 0 and self.policy.preemptive:
                self._preempt(tenant, count, now)
            elif self.policy.elastic:
                self._resize_running(tenant, count, target, now)
        # Pass 2 — grow running jobs, then seat waiters, FIFO.
        for tenant, count in zip(active, held):
            if tenant.state != _RUNNING:
                continue
            target = targets.get(tenant.name, count)
            if target > count and self.policy.elastic:
                self._resize_running(tenant, count, target, now)
        for tenant in active:
            if tenant.state not in (_QUEUED, _PAUSED):
                continue
            target = targets.get(tenant.name, 0)
            if target <= 0:
                continue
            self._seat(tenant, target, now)
        return self._freed_repairs

    def _feasible_size(
        self, tenant: _Tenant, want: int, floor: int, cap: int
    ) -> int:
        """Largest orchestration-feasible node-granular size in
        ``[floor, min(want, cap)]``, or 0.

        A size equal to the job's demand is trusted without probing (the
        demand config exists, so planning it is the job's own problem);
        smaller slices are probed through the per-job plan memo so a
        successful probe is never wasted work.
        """
        node = self.allocator.gpus_per_node
        size = min(want, cap)
        size -= size % node
        while size >= floor:
            if size >= tenant.spec.demand_gpus or tenant.sim.feasible(size):
                return size
            size -= node
        return 0

    def _resize_running(
        self, tenant: _Tenant, held: int, target: int, now: float
    ) -> None:
        if target < held:
            # Shrink: smallest feasible size at-or-above the target,
            # never below the job's declared floor — min_gpus is the
            # smallest slice the scheduler may grant, so a
            # non-preemptive policy's target of 0 parks the job at its
            # floor rather than squeezing it to one node.
            size = max(target, tenant.spec.floor_gpus)
            while size <= held and not (
                size >= tenant.spec.demand_gpus or tenant.sim.feasible(size)
            ):
                size += self.allocator.gpus_per_node
            if size >= held:
                return
        else:
            cap = held + self.allocator.free_gpus
            size = self._feasible_size(
                tenant, target, tenant.spec.floor_gpus, cap
            )
            if size <= held:
                return
        # The job's own boundary, not the decision time: teleporting a
        # lagging clock forward would invent idle time, and a job ahead
        # of the decision cannot replan in its past.
        self._catch_up(tenant)
        tenant.sim.apply_resize(size, tenant.sim.clock)
        tenant.segment = None
        self._account_delta(tenant, size - held)
        # The resize supersedes the job's pending failure repair (the
        # simulator cancels its internal re-growth), so capacity still
        # under repair returns to the shared pool instead of idling
        # reserved until the job completes.
        if self.allocator.abandon_repairs(tenant.name):
            self._freed_repairs = True

    def _preempt(self, tenant: _Tenant, held: int, now: float) -> None:
        # Killed at its own boundary (see _resize_running).
        self._catch_up(tenant)
        at = tenant.sim.clock
        obs.count("fleet.preemptions")
        tenant.sim.preempt(at)
        tenant.segment = None
        if held:
            self.allocator.release(tenant.name, held)
        if self.allocator.abandon_repairs(tenant.name):
            self._freed_repairs = True
        tenant.state = _PAUSED
        tenant.queue_since = at

    def _seat(self, tenant: _Tenant, target: int, now: float) -> None:
        grant = self._feasible_size(
            tenant, target, tenant.spec.floor_gpus, self.allocator.free_gpus
        )
        if grant <= 0:
            return
        obs.event(
            "fleet.seat", job=tenant.name, t=now, gpus=grant,
            resumed=tenant.state == _PAUSED,
        )
        if tenant.state == _QUEUED:
            tenant.sim.start(grant, start_time=now)
            tenant.start_s = now
        else:
            tenant.sim.resume(grant, now)
        tenant.queue_seconds += max(0.0, now - tenant.queue_since)
        self.allocator.carve(tenant.name, grant)
        tenant.state = _RUNNING
        tenant.segment = None


def run_fleet(spec: FleetSpec) -> FleetResult:
    """Convenience wrapper: simulate ``spec`` on its shared cluster."""
    return FleetEngine(spec).run()
