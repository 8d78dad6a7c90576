"""Multi-tenant fleet scheduling over the per-job scenario core.

The paper's orchestrator plans one multimodal training task; its
production setting is a shared cluster where many jobs contend for GPUs
and elastically grow/shrink as failures, repairs, and arrivals reshape
the fleet. This package is that layer:

* :mod:`repro.fleet.job` — :class:`JobSimulator`, the per-job
  iteration-walking state machine a single-job scenario run uses too,
  stepping against an *allocated* GPU count;
* :mod:`repro.fleet.policies` — pluggable scheduling policies:
  FIFO-exclusive, elastic fair-share, priority-preemptive;
* :mod:`repro.fleet.spec` — :class:`FleetJobSpec` / :class:`FleetSpec`,
  the declarative, sweepable description of a shared-cluster workload;
* :mod:`repro.fleet.engine` — :class:`FleetEngine`, driving N job
  simulators on one shared event clock with allocation accounting
  (:class:`repro.cluster.allocation.GPUAllocator`) and per-policy
  :class:`FleetResult` metrics (fleet goodput, per-job JCT,
  utilization, preemption/replan counts).

All jobs share the process-wide orchestration plan cache, so co-tenant
replans of the same task amortize across the fleet.
"""

from repro.fleet.engine import FleetEngine, FleetJobRecord, FleetResult, run_fleet
from repro.fleet.job import JobSimulator
from repro.fleet.policies import (
    POLICIES,
    ElasticFairSharePolicy,
    FIFOExclusivePolicy,
    PriorityPreemptivePolicy,
    SchedulingPolicy,
    make_policy,
)
from repro.fleet.spec import FleetJobSpec, FleetSpec

__all__ = [
    "ElasticFairSharePolicy",
    "FIFOExclusivePolicy",
    "FleetEngine",
    "FleetJobRecord",
    "FleetJobSpec",
    "FleetResult",
    "FleetSpec",
    "JobSimulator",
    "POLICIES",
    "PriorityPreemptivePolicy",
    "SchedulingPolicy",
    "make_policy",
    "run_fleet",
]
