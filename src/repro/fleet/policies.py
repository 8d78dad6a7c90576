"""Pluggable fleet scheduling policies.

A policy answers one question at every scheduling decision point (job
arrival, job completion, preemption resume): *how many GPUs should each
active job hold right now?* It sees lightweight :class:`JobView` rows —
demand, minimum feasible size, priority, arrival order, current holding
— plus the reallocatable capacity, and returns node-granular targets.
The engine applies the diff (shrink and preempt first, then grow and
start), adjusting any target the job's orchestration cannot actually
fit (memory-infeasible slice) to the nearest feasible size.

Three policies ship, spanning the classic design space:

* :class:`FIFOExclusivePolicy` — arrival-ordered admission at full
  demand; running jobs are never resized or preempted. The strawman
  production baseline: simple, predictable, poor utilization under
  mixed demands.
* :class:`ElasticFairSharePolicy` — max-min fair shares in whole nodes
  across all admitted jobs (utility-fair allocation in the sense of
  Low & Lapsley's *Optimization Flow Control*, specialized to equal
  weights and node-granular capacities): every job is floored at its
  minimum feasible size in arrival order, then spare nodes round-robin
  to the jobs furthest below demand. Running jobs resize gracefully.
* :class:`PriorityPreemptivePolicy` — strict priority (ties broken by
  arrival): higher-priority jobs take their full demand; lower-priority
  tenants shrink to the remainder, and are preempted outright when
  nothing feasible remains for them.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Dict, List, Type

from repro.cluster.allocation import GPUAllocator


@dataclass(frozen=True)
class JobView:
    """What a policy may know about one job at a decision point."""

    name: str
    demand_gpus: int
    min_gpus: int
    priority: int
    arrival_order: int
    #: GPUs currently held (0 for queued/preempted jobs).
    allocated_gpus: int
    running: bool

    @property
    def fifo_key(self):
        return (self.arrival_order, self.name)


class SchedulingPolicy:
    """Base policy: subclasses implement :meth:`targets`."""

    name = "abstract"
    #: Whether the engine may take GPUs away from a running job to
    #: satisfy this policy's targets.
    preemptive = False
    #: Whether the engine may shrink/grow running jobs gracefully.
    elastic = False

    def targets(
        self, now: float, jobs: List[JobView], allocator: GPUAllocator
    ) -> Dict[str, int]:
        """Node-granular target allocation per job name.

        ``jobs`` are the admitted, unfinished jobs. A job absent from
        the returned mapping keeps its current allocation; a target of
        0 for a running job preempts it (only meaningful for
        ``preemptive`` policies).
        """
        raise NotImplementedError

    def __repr__(self) -> str:
        return f"{type(self).__name__}()"


class FIFOExclusivePolicy(SchedulingPolicy):
    """Admit in arrival order at full demand; never reshape."""

    name = "fifo"

    def targets(
        self, now: float, jobs: List[JobView], allocator: GPUAllocator
    ) -> Dict[str, int]:
        out: Dict[str, int] = {}
        free = allocator.free_gpus
        blocked = False
        for job in sorted(jobs, key=lambda j: j.fifo_key):
            if job.running:
                out[job.name] = job.allocated_gpus
                continue
            # Exclusive: a job runs at its full demand — capped at the
            # whole cluster, the most it can ever be granted — or waits
            # its turn; it is never seated on a leftover sliver. Strict
            # arrival order means head-of-line blocking: once a queued
            # job does not fit, no later arrival may jump past it.
            want = min(job.demand_gpus, allocator.total_gpus)
            if not blocked and want <= free:
                out[job.name] = want
                free -= want
            else:
                out[job.name] = 0
                blocked = True
        return out


class ElasticFairSharePolicy(SchedulingPolicy):
    """Max-min fair node shares with graceful elastic resizing."""

    name = "fair-share"
    elastic = True

    def targets(
        self, now: float, jobs: List[JobView], allocator: GPUAllocator
    ) -> Dict[str, int]:
        node = allocator.gpus_per_node
        # Reallocatable capacity: the free pool plus everything held by
        # jobs this policy may reshape. Down capacity is reserved for
        # its owner and never redistributed.
        budget = allocator.free_gpus + sum(
            j.allocated_gpus for j in jobs if j.running
        )
        ordered = sorted(jobs, key=lambda j: j.fifo_key)
        out: Dict[str, int] = {j.name: 0 for j in jobs}
        # Pass 1 — admission floors, FIFO: everyone gets their minimum
        # feasible slice while the budget lasts.
        admitted: List[JobView] = []
        for job in ordered:
            floor = min(job.min_gpus, job.demand_gpus)
            if budget >= floor:
                out[job.name] = floor
                budget -= floor
                admitted.append(job)
        # Pass 2 — max-min refill: one node at a time to the admitted
        # job with the *smallest current allocation* still below its
        # demand (FIFO tie-break). Equalizing allocations — not
        # deficits — is what makes the shares max-min fair; chasing the
        # largest deficit would hand a big-demand tenant nearly
        # everything and starve small ones. The wanting jobs sit on a
        # heap keyed (allocation, arrival order, name).
        wanting = [
            (out[job.name],) + job.fifo_key + (job.demand_gpus,)
            for job in admitted
            if out[job.name] < job.demand_gpus
        ]
        heapq.heapify(wanting)
        while budget >= node and wanting:
            held, order, name, demand = wanting[0]
            held += node
            out[name] = held
            budget -= node
            if held < demand:
                heapq.heapreplace(wanting, (held, order, name, demand))
            else:
                heapq.heappop(wanting)
        return out


class PriorityPreemptivePolicy(SchedulingPolicy):
    """Strict priority at full demand; lower tenants shrink or are
    preempted to make room.

    Elastic as well as preemptive: when a lower-priority tenant can
    keep *some* capacity after the higher tenants take their demand, it
    shrinks gracefully instead of being killed — it is preempted
    (target 0) only when nothing feasible remains for it.
    """

    name = "priority"
    preemptive = True
    elastic = True

    def targets(
        self, now: float, jobs: List[JobView], allocator: GPUAllocator
    ) -> Dict[str, int]:
        budget = allocator.free_gpus + sum(
            j.allocated_gpus for j in jobs if j.running
        )
        ordered = sorted(
            jobs, key=lambda j: (-j.priority, j.arrival_order, j.name)
        )
        out: Dict[str, int] = {}
        for job in ordered:
            grant = min(job.demand_gpus, budget)
            if grant < job.min_gpus:
                grant = 0
            out[job.name] = grant
            budget -= grant
        return out


POLICIES: Dict[str, Type[SchedulingPolicy]] = {
    policy.name: policy
    for policy in (
        FIFOExclusivePolicy,
        ElasticFairSharePolicy,
        PriorityPreemptivePolicy,
    )
}


def make_policy(policy) -> SchedulingPolicy:
    """Coerce a policy name or instance to an instance."""
    if isinstance(policy, SchedulingPolicy):
        return policy
    try:
        return POLICIES[policy]()
    except KeyError:
        raise ValueError(
            f"unknown scheduling policy {policy!r}; "
            f"known: {sorted(POLICIES)}"
        ) from None
