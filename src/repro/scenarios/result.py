"""Outcome of one simulated training job under cluster dynamics.

:class:`ScenarioResult` is produced by the per-job state machine
(:class:`repro.fleet.job.JobSimulator`) whether the job ran alone
(:func:`repro.scenarios.engine.run_scenario`) or as one tenant of a
shared cluster (:class:`repro.fleet.engine.FleetEngine`). It lives in
its own module so both layers can import it without cycles.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Any, Dict, Mapping

import numpy as np

from repro.scenarios.events import EventTrace


@dataclass
class ScenarioResult:
    """Outcome of one dynamic-cluster scenario."""

    num_iterations: int
    total_seconds: float
    ideal_seconds: float
    useful_seconds: float
    lost_seconds: float
    checkpoint_stall_seconds: float
    recovery_seconds: float
    num_failures: int
    replayed_iterations: int
    num_replans: int
    initial_gpus: int
    final_gpus: int
    min_gpus: int
    mean_mfu: float
    effective_tokens_per_s: float
    ideal_tokens_per_s: float
    mfu_trajectory: np.ndarray
    iteration_times: np.ndarray
    events: EventTrace
    #: Plan-need accounting for this run: a hit is an orchestration
    #: that was needed (initial plan, elastic shrink, repair re-growth)
    #: and already solved earlier in the run, by this job or a fleet
    #: co-tenant; a miss is the run's first need of that (task, size),
    #: the search a cold process would run. Counted per run, so a pure
    #: function of the spec, but NOT part of :meth:`metrics`, which
    #: describes the simulated training rather than the simulator.
    plan_cache_hits: int = 0
    plan_cache_misses: int = 0
    #: GPU-seconds spent executing iterations (including replayed work),
    #: integrated over the allocation the job held at each iteration.
    #: Drives fleet-level utilization; NOT part of :meth:`metrics` so
    #: existing golden snapshots stand unchanged.
    gpu_seconds: float = 0.0
    #: Times a fleet scheduler preempted this job (always 0 outside a
    #: fleet). NOT part of :meth:`metrics` for the same reason.
    preemptions: int = 0

    @property
    def goodput(self) -> float:
        """Ideal-speed work over wall-clock: 1.0 means every second went
        into full-cluster-speed retained progress."""
        if self.total_seconds <= 0:
            return 1.0
        return self.ideal_seconds / self.total_seconds

    @property
    def availability(self) -> float:
        """Fraction of wall-clock outside restart/reload/replan pauses."""
        if self.total_seconds <= 0:
            return 1.0
        return 1.0 - self.recovery_seconds / self.total_seconds

    def metrics(self) -> Dict[str, float]:
        """Flat metric row for campaign records / ResultFrame."""
        return {
            "goodput": self.goodput,
            "availability": self.availability,
            "total_seconds": self.total_seconds,
            "ideal_seconds": self.ideal_seconds,
            "useful_seconds": self.useful_seconds,
            "lost_seconds": self.lost_seconds,
            "checkpoint_stall_seconds": self.checkpoint_stall_seconds,
            "recovery_seconds": self.recovery_seconds,
            "num_failures": float(self.num_failures),
            "replayed_iterations": float(self.replayed_iterations),
            "num_replans": float(self.num_replans),
            "num_gpus": float(self.initial_gpus),
            "final_gpus": float(self.final_gpus),
            "min_gpus": float(self.min_gpus),
            "mfu": self.mean_mfu,
            "iteration_time": float(np.mean(self.iteration_times)),
            "throughput_tokens_per_s": self.effective_tokens_per_s,
            "ideal_tokens_per_s": self.ideal_tokens_per_s,
        }

    # ------------------------------------------------------------------ #
    # Lossless serialization (run reports, result files)
    # ------------------------------------------------------------------ #
    def to_dict(self) -> Dict[str, Any]:
        """JSON-safe dict of every field in declaration order, which
        round-trips through :meth:`from_dict` losslessly: float64 values
        survive via shortest-repr JSON floats, trajectories as lists,
        the event trace via its own schema."""
        payload = {f.name: getattr(self, f.name) for f in fields(self)}
        payload["mfu_trajectory"] = [float(x) for x in self.mfu_trajectory]
        payload["iteration_times"] = [float(x) for x in self.iteration_times]
        payload["events"] = self.events.to_dicts()
        return payload

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "ScenarioResult":
        payload = dict(data)
        payload["mfu_trajectory"] = np.asarray(
            payload["mfu_trajectory"], dtype=np.float64
        )
        payload["iteration_times"] = np.asarray(
            payload["iteration_times"], dtype=np.float64
        )
        payload["events"] = EventTrace.from_dicts(payload["events"])
        return cls(**payload)
