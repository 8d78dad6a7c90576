"""Declarative, sweepable description of a shared-cluster workload.

A :class:`FleetSpec` is the fleet analogue of a
:class:`~repro.scenarios.spec.ScenarioSpec`: the shared cluster, the
scheduling policy, and one :class:`FleetJobSpec` per tenant (task
config at its demand size, per-job dynamics, arrival time, priority).
Like the scenario spec it canonicalizes to JSON-safe primitives so the
campaign cache key covers every field — changing any job's arrival,
priority, or dynamics re-executes exactly the affected trials.

:meth:`FleetSpec.homogeneous` builds the canonical contention workload
the sweeps and benchmarks use: N staggered copies of one task sharing a
cluster that cannot hold them all at full demand.
Campaign trials and ``repro fleet run`` build it, or a scenario pack's
workload, through :meth:`FleetSpec.from_params`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields, replace
from types import MappingProxyType
from typing import Any, Dict, Mapping, Optional, Sequence, Tuple

from repro.cluster.cluster import ClusterSpec, make_cluster, resized_cluster
from repro.core.canonical import canonical_value
from repro.core.config import DistTrainConfig
from repro.scenarios.spec import ScenarioSpec

@dataclass(frozen=True)
class FleetJobSpec:
    """One tenant of a shared cluster.

    Attributes:
        name: Unique job label.
        config: The training task *at its demand size* — the config's
            cluster is what the job asks the scheduler for (and the
            node type it runs on).
        scenario: The job's own dynamics (iterations, failures,
            stragglers, elasticity). Trace-scripted resize events are
            rejected: inside a fleet, resizes belong to the scheduler.
        arrival_s: Fleet wall-clock at which the job arrives.
        priority: Larger preempts smaller under the priority policy.
        min_gpus: Smallest slice the scheduler may grant (defaults to
            one node; the engine additionally respects orchestration
            feasibility at runtime).
        job_class: Workload-class label (e.g. ``"prod"``, ``"batch"``)
            carried into per-job fleet records and reports.
        deadline_s: Absolute fleet wall-clock deadline. A job finishing
            after it counts as a deadline miss.
        slo_factor: Relative SLO: the deadline is ``arrival_s +
            slo_factor * ideal_demand_seconds`` (the job's zero-event
            runtime at full demand). Ignored when ``deadline_s`` is
            set; both None means the job carries no deadline.
    """

    name: str
    config: DistTrainConfig
    scenario: ScenarioSpec
    arrival_s: float = 0.0
    priority: int = 0
    min_gpus: Optional[int] = None
    job_class: str = ""
    deadline_s: Optional[float] = None
    slo_factor: Optional[float] = None

    def __post_init__(self) -> None:
        # Float guards are written so NaN fails them: every comparison
        # with NaN is False.
        if not self.name:
            raise ValueError("job needs a name")
        if not 0 <= self.arrival_s < math.inf:
            raise ValueError(
                f"arrival_s must be finite and non-negative, got "
                f"{self.arrival_s}"
            )
        if self.deadline_s is not None and not (
            self.arrival_s < self.deadline_s < math.inf
        ):
            raise ValueError(
                "deadline_s must be finite and lie after the job's arrival"
            )
        if self.slo_factor is not None and not 0 < self.slo_factor < math.inf:
            raise ValueError("slo_factor must be positive and finite")
        if self.scenario.events is not None and any(
            e.kind == "resize" for e in self.scenario.events
        ):
            raise ValueError(
                "fleet jobs cannot carry scripted resize events; "
                "allocation changes belong to the scheduling policy"
            )
        node = self.config.cluster.gpus_per_node
        if self.min_gpus is not None:
            if self.min_gpus < node or self.min_gpus % node != 0:
                raise ValueError(
                    f"min_gpus must be whole nodes (>= {node}), "
                    f"got {self.min_gpus}"
                )
            if self.min_gpus > self.config.cluster.num_gpus:
                raise ValueError(
                    f"min_gpus={self.min_gpus} exceeds the job's demand "
                    f"({self.config.cluster.num_gpus} GPUs) — no grant "
                    "could ever satisfy it"
                )

    @property
    def demand_gpus(self) -> int:
        return self.config.cluster.num_gpus

    @property
    def floor_gpus(self) -> int:
        return (
            self.min_gpus
            if self.min_gpus is not None
            else self.config.cluster.gpus_per_node
        )


#: The value of each ``fleet_*`` parameter that
#: :meth:`FleetSpec.from_params` reads when it is not given, and the
#: matching defaults of :meth:`FleetSpec.homogeneous`. ``repro fleet
#: run|sweep`` fill their unset flags from here and
#: :meth:`~repro.experiments.spec.TrialSpec.label` reads it, so a trial
#: and a command given the same parameters build the same fleet. A pack
#: brings its own arrivals, priorities and policy and reads only
#: ``fleet_jobs``.
FLEET_PARAM_DEFAULTS: Mapping[str, Any] = MappingProxyType({
    "fleet_jobs": 4,
    "fleet_arrival_spacing": 0.0,
    "fleet_priorities": (0,),
    "fleet_policy": "fair-share",
})


@dataclass
class FleetSpec:
    """A shared cluster, a policy, and the tenant jobs.

    ``policy`` is normally one of the named
    :data:`~repro.fleet.policies.POLICIES`; a
    :class:`~repro.fleet.policies.SchedulingPolicy` *instance* is also
    accepted for custom (e.g. stateful) schedulers — such specs are not
    campaign-cacheable (:meth:`canonical` uses the instance's name,
    which cannot cover its state).
    """

    cluster: ClusterSpec
    jobs: Tuple[FleetJobSpec, ...] = ()
    policy: Any = "fair-share"
    #: Name of the scenario pack that generated this fleet (see
    #: :mod:`repro.scenarios.packs`), or None for hand-built fleets.
    pack: Optional[str] = None

    def __post_init__(self) -> None:
        self.jobs = tuple(self.jobs)
        if not self.jobs:
            raise ValueError("fleet needs at least one job")
        names = [job.name for job in self.jobs]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate job names: {sorted(names)}")
        from repro.fleet.policies import POLICIES, SchedulingPolicy

        if (
            not isinstance(self.policy, SchedulingPolicy)
            and self.policy not in POLICIES
        ):
            raise ValueError(
                f"unknown scheduling policy {self.policy!r}; "
                f"known: {sorted(POLICIES)}"
            )
        node = self.cluster.gpus_per_node
        for job in self.jobs:
            if job.config.cluster.gpus_per_node != node:
                raise ValueError(
                    f"job {job.name!r} node type does not match the "
                    "shared cluster"
                )

    # ------------------------------------------------------------------ #
    # Canonical workloads
    # ------------------------------------------------------------------ #
    @classmethod
    def homogeneous(
        cls,
        config: DistTrainConfig,
        cluster_gpus: int,
        num_jobs: int,
        job_gpus: Optional[int] = None,
        arrival_spacing_s: float = FLEET_PARAM_DEFAULTS["fleet_arrival_spacing"],
        priorities: Sequence[int] = FLEET_PARAM_DEFAULTS["fleet_priorities"],
        policy: str = FLEET_PARAM_DEFAULTS["fleet_policy"],
        scenario: Optional[ScenarioSpec] = None,
    ) -> "FleetSpec":
        """N staggered copies of one task contending for one cluster.

        Each job gets a distinct name, a derived failure seed
        (``scenario.seed + index`` — identical tenants must not fail in
        lockstep), an arrival of ``index * arrival_spacing_s``, and a
        priority cycled from ``priorities``.
        """
        if num_jobs < 1:
            raise ValueError("num_jobs must be >= 1")
        scenario = scenario or ScenarioSpec()
        demand = config.cluster.num_gpus if job_gpus is None else job_gpus
        if demand != config.cluster.num_gpus:
            config = config.with_(
                cluster=resized_cluster(config.cluster, demand)
            )
        cluster = (
            config.cluster
            if cluster_gpus == config.cluster.num_gpus
            else make_cluster(
                cluster_gpus,
                node=config.cluster.node,
                cpu_nodes=config.cluster.cpu_nodes,
            )
        )
        priorities = tuple(priorities) or (0,)
        jobs = tuple(
            FleetJobSpec(
                name=f"job{i:02d}",
                config=config,
                scenario=scenario.with_(seed=scenario.seed + i),
                arrival_s=i * arrival_spacing_s,
                priority=priorities[i % len(priorities)],
            )
            for i in range(num_jobs)
        )
        return cls(cluster=cluster, jobs=jobs, policy=policy)

    @classmethod
    def from_params(
        cls,
        config: DistTrainConfig,
        scenario: ScenarioSpec,
        params: Mapping[str, Any],
    ) -> "FleetSpec":
        """The fleet that sweep-level ``fleet_*`` parameters describe
        on ``config``'s cluster, with ``scenario`` as every job's
        dynamics.

        Without ``fleet_pack`` it is :meth:`homogeneous`. With it, the
        named :class:`~repro.scenarios.packs.ScenarioPack` builds the
        workload, seeded by ``scenario.seed``, and an explicit
        ``fleet_policy`` overrides the pack's policy. A parameter not
        given takes its :data:`FLEET_PARAM_DEFAULTS` value.
        """
        cluster_gpus = config.cluster.num_gpus
        num_jobs = int(
            params.get("fleet_jobs", FLEET_PARAM_DEFAULTS["fleet_jobs"])
        )
        if params.get("fleet_pack"):
            from repro.scenarios.packs import get_pack

            return get_pack(params["fleet_pack"]).build_fleet(
                config,
                cluster_gpus=cluster_gpus,
                num_jobs=num_jobs,
                seed=scenario.seed,
                scenario=scenario,
                policy=params.get("fleet_policy"),
            )
        params = {**FLEET_PARAM_DEFAULTS, **params}
        priorities = params["fleet_priorities"]
        return cls.homogeneous(
            config,
            cluster_gpus=cluster_gpus,
            num_jobs=num_jobs,
            job_gpus=params.get("fleet_job_gpus"),
            arrival_spacing_s=float(params["fleet_arrival_spacing"]),
            priorities=(
                (priorities,) if isinstance(priorities, int)
                else tuple(priorities)
            ),
            policy=params["fleet_policy"],
            scenario=scenario,
        )

    # ------------------------------------------------------------------ #
    # Cache-key canonicalization
    # ------------------------------------------------------------------ #
    def canonical(self) -> Dict[str, Any]:
        """JSON-safe canonical form (feeds the campaign cache key): each
        job as every :class:`FleetJobSpec` field in declaration order,
        its config canonicalized and its scenario as
        :meth:`ScenarioSpec.canonical`."""
        jobs = []
        for job in self.jobs:
            payload = {f.name: getattr(job, f.name) for f in fields(job)}
            payload["config"] = canonical_value(job.config)
            payload["scenario"] = job.scenario.canonical()
            jobs.append(payload)
        return {
            "cluster": canonical_value(self.cluster),
            "policy": (
                self.policy
                if isinstance(self.policy, str)
                else self.policy.name
            ),
            "pack": self.pack,
            "jobs": jobs,
        }

    def with_(self, **kwargs: Any) -> "FleetSpec":
        return replace(self, **kwargs)
