"""Sweepable scenario configuration.

A :class:`ScenarioSpec` describes the *dynamics* of a long run — how
many iterations, the failure statistics, straggler behaviour, checkpoint
policy, and whether the scheduler resizes elastically — independently of
the training task itself (model, cluster, batch: a
:class:`~repro.core.config.DistTrainConfig`). The split keeps task
config hashes stable while letting campaigns sweep scenario knobs like
any other axis: the experiment layer combines both into one cache key,
so changing any scenario field re-executes exactly the affected trials.

Every multi-iteration run is a scenario on the scenario engine's one
timeline: a plain training run (:func:`~repro.core.api.simulate_run`,
:meth:`~repro.runtime.manager.DistTrainManager.run`) is the zero-event
spec with ``sample_iterations = num_iterations``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields, replace
from typing import Any, Dict, Optional

from repro.scenarios.events import EventTrace

#: Sweep-level parameter names (used by ``repro sweep`` / SweepSpec axes)
#: mapped to :class:`ScenarioSpec` field names.
PARAM_FIELDS = {
    "scenario_iterations": "num_iterations",
    "mtbf": "mtbf_gpu_hours",
    "straggler_rate": "straggler_rate",
    "straggler_slowdown": "straggler_slowdown",
    "straggler_iterations": "straggler_iterations",
    "elastic": "elastic",
    "checkpoint_interval": "checkpoint_interval",
    "sample_iterations": "sample_iterations",
    "failure_seed": "seed",
    "events": "events",
}

#: What each field annotation accepts, and how an error names it. A bool
#: is an int to isinstance, but passes only where ``bool`` is named: no
#: count, time or rate is a bool.
_FIELD_TYPES = {
    "int": ((int,), "an integer"),
    "float": ((int, float), "a number"),
    "bool": ((bool,), "a boolean"),
    "Optional[float]": ((int, float, type(None)), "a number or None"),
    "Optional[EventTrace]": (
        (EventTrace, type(None)), "an EventTrace or None"
    ),
    "Optional[str]": ((str, type(None)), "a string or None"),
}


@dataclass(frozen=True)
class ScenarioSpec:
    """Dynamics of one long training run.

    Attributes:
        num_iterations: Target iterations to retain (the run replays lost
            work until this many survive).
        checkpoint_interval: Iterations between asynchronous checkpoints.
        mtbf_gpu_hours: Per-GPU mean time between failures; None disables
            sampled failures (explicit ``events`` still apply). A job's
            failures arrive as a Poisson process at
            :meth:`cluster_mtbf_seconds` of the GPUs it computes on.
        restart_seconds / checkpoint_load_seconds: Per-failure downtime.
        gpus_lost_per_failure: GPUs shed by each sampled failure.
        straggler_rate: Per-iteration probability that a new straggler
            episode starts.
        straggler_slowdown: Compute slowdown of a straggling rank.
        straggler_iterations: Length of a straggler episode.
        elastic: Re-orchestrate on the surviving cluster after a failure
            (vs. restarting at full size on replacement hardware).
        repair_seconds: Simulated time until failed capacity returns and
            an elastic job re-grows to full size.
        replan_seconds: Modeled pause for one elastic re-orchestration
            (solve + re-shard + process-group rebuild). A modeled
            constant — not measured wall-clock — so scenario metrics
            stay deterministic.
        sample_iterations: Distinct global batches prepared per cluster
            size; iteration ``i`` reuses sample ``i % sample_iterations``.
            Raising it to ``num_iterations`` prices every iteration's
            own fresh batch: the zero-event run is then the plain
            multi-iteration training run
            (:func:`~repro.core.api.simulate_run`).
        seed: Seed for sampled failures and straggler episodes.
        events: Explicit event trace replayed instead of sampling.
        pack: Name of the scenario pack that generated this spec (see
            :mod:`repro.scenarios.packs`), or None for hand-built
            specs. Participates in the canonical cache key so pack
            revisions invalidate cached trials.
    """

    num_iterations: int = 1000
    checkpoint_interval: int = 50
    mtbf_gpu_hours: Optional[float] = None
    restart_seconds: float = 300.0
    checkpoint_load_seconds: float = 120.0
    gpus_lost_per_failure: int = 8
    straggler_rate: float = 0.0
    straggler_slowdown: float = 1.5
    straggler_iterations: int = 20
    elastic: bool = False
    repair_seconds: float = 3600.0
    replan_seconds: float = 30.0
    sample_iterations: int = 4
    seed: int = 0
    events: Optional[EventTrace] = None
    pack: Optional[str] = None

    def __post_init__(self) -> None:
        # Every field has its annotated type: a float count fails deep
        # inside a run, and a string rate fails a bare comparison.
        for f in fields(self):
            kinds, expected = _FIELD_TYPES[f.type]
            value = getattr(self, f.name)
            if not isinstance(value, kinds) or (
                isinstance(value, bool) and bool not in kinds
            ):
                raise ValueError(f"{f.name} must be {expected}, got {value!r}")
        # Float guards are written so NaN fails them: every comparison
        # with NaN is False.
        if self.num_iterations < 1:
            raise ValueError("num_iterations must be >= 1")
        if self.checkpoint_interval < 1:
            raise ValueError("checkpoint_interval must be >= 1")
        if self.mtbf_gpu_hours is not None and not self.mtbf_gpu_hours > 0:
            raise ValueError("mtbf_gpu_hours must be positive")
        if not 0.0 <= self.straggler_rate <= 1.0:
            raise ValueError("straggler_rate is a per-iteration probability")
        if not 1.0 <= self.straggler_slowdown < math.inf:
            raise ValueError("straggler_slowdown must be finite and >= 1.0")
        if self.straggler_iterations < 1:
            raise ValueError("straggler_iterations must be >= 1")
        if self.sample_iterations < 1:
            raise ValueError("sample_iterations must be >= 1")
        if self.gpus_lost_per_failure < 1:
            raise ValueError("gpus_lost_per_failure must be >= 1")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        if not (self.repair_seconds >= 0 and self.replan_seconds >= 0):
            raise ValueError("recovery times must be non-negative")
        if not (
            self.restart_seconds >= 0 and self.checkpoint_load_seconds >= 0
        ):
            # A negative component would flow into downtime_seconds as
            # a per-failure time *credit*.
            raise ValueError("downtime components must be non-negative")

    # ------------------------------------------------------------------ #
    # Derived pieces
    # ------------------------------------------------------------------ #
    @property
    def downtime_seconds(self) -> float:
        """Fixed per-failure downtime (restart + checkpoint reload)."""
        return self.restart_seconds + self.checkpoint_load_seconds

    def cluster_mtbf_seconds(self, num_gpus: int) -> float:
        """MTBF of a job on ``num_gpus`` GPUs (any GPU failing kills the
        iteration)."""
        if self.mtbf_gpu_hours is None:
            raise ValueError("sampled failures are disabled (no MTBF)")
        if num_gpus < 1:
            raise ValueError("num_gpus must be positive")
        return self.mtbf_gpu_hours * 3600.0 / num_gpus

    def with_(self, **kwargs: Any) -> "ScenarioSpec":
        return replace(self, **kwargs)

    # ------------------------------------------------------------------ #
    # Sweep integration
    # ------------------------------------------------------------------ #
    @classmethod
    def from_params(cls, params: Dict[str, Any]) -> "ScenarioSpec":
        """Build a spec from sweep-level scenario parameters.

        ``params`` uses the short names campaigns sweep (see
        :data:`PARAM_FIELDS`); ``events`` may be an in-line list of event
        dicts (the JSON trace schema).
        """
        kwargs: Dict[str, Any] = {}
        for name, value in params.items():
            if name not in PARAM_FIELDS:
                raise ValueError(
                    f"unknown scenario parameter {name!r}; "
                    f"known: {sorted(PARAM_FIELDS)}"
                )
            field_name = PARAM_FIELDS[name]
            if field_name == "events" and value is not None:
                if not isinstance(value, EventTrace):
                    value = EventTrace.from_dicts(value)
            kwargs[field_name] = value
        return cls(**kwargs)

    def canonical(self) -> Dict[str, Any]:
        """JSON-safe canonical form (feeds the campaign cache key):
        every field in declaration order, the event trace as its JSON
        records."""
        payload = {f.name: getattr(self, f.name) for f in fields(self)}
        if self.events is not None:
            payload["events"] = self.events.to_dicts()
        return payload
