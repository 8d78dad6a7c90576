"""Declarative scenario packs: named workload + fault bundles.

A :class:`ScenarioPack` bundles everything that shapes a shared-cluster
workload beyond the training task itself:

* an :class:`ArrivalProcess` — fixed-spacing, Poisson, diurnal, or
  bursty job arrivals (replacing the fixed ``arrival_spacing_s`` grid);
* a mix of :class:`JobClass`\\ es — heterogeneous sizes, iteration
  budgets, priorities, and deadline/SLO factors;
* a :class:`FaultProfile` — correlated failure domains with rack/node
  blast radius (drawn from
  :func:`repro.cluster.topology.failure_domains`),
  spot-capacity reclamation, maintenance windows, and stragglers.

``build_fleet`` expands a pack into an ordinary
:class:`~repro.fleet.spec.FleetSpec` whose per-job
:class:`~repro.scenarios.spec.ScenarioSpec` carries an explicit v2
:class:`~repro.scenarios.events.EventTrace` — so a pack run is *fully
replayable*: the same pack, seed, and task always produce byte-identical
specs, and the expanded workload can be serialized
(:meth:`ScenarioPack.materialize`) into a golden fixture and diffed.

All sampling is deterministic per ``(pack, seed)``: numpy seed-sequence
streams keyed off dedicated stream tags, with *rate-monotone* arrival
sampling — the per-seed unit-exponential increments are fixed and only
scaled (or warped through the cumulative intensity) by the rate, so
raising the arrival rate never reorders or delays an arrival. The
shipped :data:`PACKS` catalog is the fleet analogue of the SimPy
exemplar's ``rulesets.json``: a small library of named regimes sweeps
and policy tournaments can reference by name.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

from repro.cluster.cluster import make_cluster, resized_cluster
from repro.cluster.topology import DEFAULT_NODES_PER_RACK, failure_domains
from repro.core.config import DistTrainConfig
from repro.scenarios.events import (
    DomainFailureEvent,
    EventTrace,
    MaintenanceEvent,
    SpotReclaimEvent,
    draw_stragglers,
)
from repro.scenarios.spec import ScenarioSpec

#: Seed-stream tags (numpy seed sequences). Disjoint from the job
#: simulator's failure/straggler streams (0/1) so pack-generated events
#: never correlate with any residual in-run sampling.
_ARRIVAL_STREAM = 10
_CLASS_STREAM = 11
_FAULT_STREAM = 12

_ARRIVAL_KINDS = ("fixed", "poisson", "diurnal", "bursty")


@dataclass(frozen=True)
class ArrivalProcess:
    """A deterministic, seedable job-arrival process.

    Kinds:

    * ``fixed`` — the legacy grid: job *i* arrives at
      ``i * spacing_s``.
    * ``poisson`` — stationary Poisson arrivals at ``rate_per_hour``.
    * ``diurnal`` — inhomogeneous Poisson with sinusoidal intensity
      ``rate * (1 + a*sin(2*pi*t/period_s))`` where ``a`` is derived
      from ``peak_to_trough`` (peak rate / trough rate). Sampled by
      inverting the cumulative intensity with fixed-iteration
      bisection, so it is exactly reproducible.
    * ``bursty`` — Poisson-spaced burst *starts* (rate counts bursts),
      each releasing ``burst_size`` jobs ``burst_spacing_s`` apart.

    Sampling is **rate-monotone** per seed: the underlying
    unit-exponential increments are drawn once from the seed and only
    scaled by the rate, so a higher rate produces pointwise
    earlier-or-equal arrivals.
    """

    kind: str = "fixed"
    spacing_s: float = 0.0
    rate_per_hour: float = 6.0
    peak_to_trough: float = 3.0
    period_s: float = 86400.0
    burst_size: int = 4
    burst_spacing_s: float = 30.0

    def __post_init__(self) -> None:
        if self.kind not in _ARRIVAL_KINDS:
            raise ValueError(
                f"unknown arrival kind {self.kind!r}; "
                f"known: {list(_ARRIVAL_KINDS)}"
            )
        if self.spacing_s < 0:
            raise ValueError("spacing_s must be non-negative")
        if self.rate_per_hour <= 0:
            raise ValueError("rate_per_hour must be positive")
        if self.peak_to_trough < 1.0:
            raise ValueError(
                "peak_to_trough is peak rate over trough rate (>= 1)"
            )
        if self.period_s <= 0:
            raise ValueError("period_s must be positive")
        if self.burst_size < 1:
            raise ValueError("burst_size must be >= 1")
        if self.burst_spacing_s < 0:
            raise ValueError("burst_spacing_s must be non-negative")

    # ------------------------------------------------------------------ #
    def sample(self, num_jobs: int, seed: int) -> Tuple[float, ...]:
        """``num_jobs`` arrival times (seconds), deterministic per seed."""
        if num_jobs < 1:
            raise ValueError("num_jobs must be >= 1")
        if self.kind == "fixed":
            return tuple(float(i * self.spacing_s) for i in range(num_jobs))
        rng = np.random.default_rng([seed, _ARRIVAL_STREAM])
        rate = self.rate_per_hour / 3600.0
        if self.kind == "poisson":
            marks = np.cumsum(rng.exponential(size=num_jobs))
            return tuple(float(m / rate) for m in marks)
        if self.kind == "bursty":
            num_bursts = -(-num_jobs // self.burst_size)
            starts = np.cumsum(rng.exponential(size=num_bursts)) / rate
            return tuple(
                float(starts[i // self.burst_size])
                + (i % self.burst_size) * self.burst_spacing_s
                for i in range(num_jobs)
            )
        # diurnal: unit-rate Poisson marks warped through the inverse
        # cumulative intensity.
        marks = np.cumsum(rng.exponential(size=num_jobs))
        return tuple(
            self._invert_intensity(float(m), rate) for m in marks
        )

    @property
    def _amplitude(self) -> float:
        """Sinusoid amplitude ``a`` from the peak-to-trough ratio."""
        r = self.peak_to_trough
        return (r - 1.0) / (r + 1.0)

    def _cumulative_intensity(self, t: float, rate: float) -> float:
        """Expected arrivals in [0, t] of the diurnal intensity."""
        w = 2.0 * math.pi / self.period_s
        return rate * (t + self._amplitude / w * (1.0 - math.cos(w * t)))

    def _invert_intensity(self, mark: float, rate: float) -> float:
        """Time at which the cumulative intensity first reaches ``mark``.

        The intensity is strictly positive (``a < 1``) so the integral
        is strictly increasing; a fixed 80-iteration bisection makes
        the inverse bit-reproducible across platforms.
        """
        trough_rate = rate * (1.0 - self._amplitude)
        lo, hi = 0.0, mark / trough_rate + self.period_s
        for _ in range(80):
            mid = 0.5 * (lo + hi)
            if self._cumulative_intensity(mid, rate) < mark:
                lo = mid
            else:
                hi = mid
        return 0.5 * (lo + hi)


@dataclass(frozen=True)
class JobClass:
    """One workload class in a pack's heterogeneous job mix.

    Attributes:
        name: Class label carried into fleet records (``job_class``).
        weight: Relative sampling weight in the mix.
        gpus_factor: Demand scale relative to the base task's cluster
            (rounded to whole nodes, floored at ``min_nodes``).
        iterations_factor: Iteration-budget scale relative to the base
            scenario.
        priority: Fleet priority (larger preempts smaller under the
            priority policy).
        slo_factor: Relative deadline — the job must finish within
            ``slo_factor`` times its ideal demand-size runtime of its
            arrival. None = no deadline (best-effort batch).
        min_nodes: Demand floor in nodes after scaling.
    """

    name: str
    weight: float = 1.0
    gpus_factor: float = 1.0
    iterations_factor: float = 1.0
    priority: int = 0
    slo_factor: Optional[float] = None
    min_nodes: int = 1

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("job class needs a name")
        if self.weight <= 0:
            raise ValueError("weight must be positive")
        if self.gpus_factor <= 0:
            raise ValueError("gpus_factor must be positive")
        if self.iterations_factor <= 0:
            raise ValueError("iterations_factor must be positive")
        if self.slo_factor is not None and self.slo_factor <= 0:
            raise ValueError("slo_factor must be positive")
        if self.min_nodes < 1:
            raise ValueError("min_nodes must be >= 1")


@dataclass(frozen=True)
class FaultProfile:
    """Correlated fault and capacity-lifecycle dynamics for pack jobs.

    Every rate is per simulated hour over a fixed ``horizon_s``; all
    sampling is deterministic per ``(seed, job index)``. Generated
    events land in each job's explicit v2
    :class:`~repro.scenarios.events.EventTrace`, so pack jobs never
    sample faults at run time — the trace *is* the fault model.

    Attributes:
        domain_failure_rate_per_hour: Poisson rate of correlated
            domain failures (each picks a node or rack domain of the
            job's demand cluster and kills its whole blast radius).
        rack_fraction: Probability a domain failure hits a rack rather
            than a single node.
        spot_reclaim_rate_per_hour: Poisson rate of spot reclamations.
        spot_gpus: GPUs taken by each reclamation.
        spot_duration_s: Reclamation window length.
        maintenance_every_s: Period of scheduled maintenance windows
            (0 disables); windows rotate round-robin over the demand
            cluster's racks, so they are deterministic, not sampled.
        maintenance_duration_s: Maintenance window length.
        nodes_per_rack: Rack granularity for domain resolution.
        horizon_s: Fault-generation horizon (events beyond the job's
            actual runtime simply never fire).
        straggler_rate / straggler_iterations / straggler_slowdown:
            Per-iteration straggler episodes, pre-drawn into the trace.
    """

    domain_failure_rate_per_hour: float = 0.0
    rack_fraction: float = 0.25
    spot_reclaim_rate_per_hour: float = 0.0
    spot_gpus: int = 8
    spot_duration_s: float = 1800.0
    maintenance_every_s: float = 0.0
    maintenance_duration_s: float = 3600.0
    nodes_per_rack: int = DEFAULT_NODES_PER_RACK
    horizon_s: float = 4 * 3600.0
    straggler_rate: float = 0.0
    straggler_iterations: int = 20
    straggler_slowdown: float = 1.5

    def __post_init__(self) -> None:
        for field_name in (
            "domain_failure_rate_per_hour",
            "spot_reclaim_rate_per_hour",
        ):
            if getattr(self, field_name) < 0:
                raise ValueError(f"{field_name} must be non-negative")
        if not 0.0 <= self.rack_fraction <= 1.0:
            raise ValueError("rack_fraction is a probability")
        if self.spot_gpus < 1:
            raise ValueError("spot_gpus must be >= 1")
        if self.spot_duration_s <= 0:
            raise ValueError("spot_duration_s must be positive")
        if self.maintenance_every_s < 0:
            raise ValueError("maintenance_every_s must be non-negative")
        if self.maintenance_duration_s <= 0:
            raise ValueError("maintenance_duration_s must be positive")
        if self.nodes_per_rack < 1:
            raise ValueError("nodes_per_rack must be >= 1")
        if self.horizon_s <= 0:
            raise ValueError("horizon_s must be positive")
        if not 0.0 <= self.straggler_rate <= 1.0:
            raise ValueError("straggler_rate is a probability")
        if self.straggler_iterations < 1:
            raise ValueError("straggler_iterations must be >= 1")
        if self.straggler_slowdown < 1.0:
            raise ValueError("straggler_slowdown must be >= 1.0")

    # ------------------------------------------------------------------ #
    def events_for(
        self,
        cluster,
        num_iterations: int,
        seed: int,
        index: int,
    ) -> EventTrace:
        """The explicit event trace for pack job ``index``.

        Deterministic per ``(profile, cluster shape, seed, index)``.
        Timed events come out chronologically sorted; stragglers follow.
        """
        rng = np.random.default_rng([seed, _FAULT_STREAM, index])
        domains = failure_domains(cluster, self.nodes_per_rack)
        node_names = [
            n for n, d in domains.items() if d.scope == "node"
        ]
        rack_names = [
            n for n, d in domains.items() if d.scope == "rack"
        ]
        timed: List[Any] = []

        # Correlated domain failures: Poisson arrivals, each naming a
        # rack (with probability rack_fraction) or a single node.
        if self.domain_failure_rate_per_hour > 0:
            mean_gap = 3600.0 / self.domain_failure_rate_per_hour
            t = float(rng.exponential(mean_gap))
            while t <= self.horizon_s:
                hit_rack = (
                    bool(rack_names)
                    and float(rng.uniform()) < self.rack_fraction
                )
                names = rack_names if hit_rack else node_names
                domain = names[int(rng.integers(len(names)))]
                timed.append(
                    DomainFailureEvent(time_s=float(t), domain=domain)
                )
                t += float(rng.exponential(mean_gap))

        # Spot reclamations: Poisson arrivals taking a fixed slice.
        if self.spot_reclaim_rate_per_hour > 0:
            mean_gap = 3600.0 / self.spot_reclaim_rate_per_hour
            t = float(rng.exponential(mean_gap))
            while t <= self.horizon_s:
                timed.append(
                    SpotReclaimEvent(
                        time_s=float(t),
                        gpus=int(self.spot_gpus),
                        duration_s=float(self.spot_duration_s),
                    )
                )
                t += float(rng.exponential(mean_gap))

        # Maintenance windows: deterministic periodic schedule rotating
        # round-robin over the cluster's racks.
        if self.maintenance_every_s > 0 and rack_names:
            k = 1
            while k * self.maintenance_every_s <= self.horizon_s:
                timed.append(
                    MaintenanceEvent(
                        time_s=float(k * self.maintenance_every_s),
                        duration_s=float(self.maintenance_duration_s),
                        domain=rack_names[(k - 1) % len(rack_names)],
                    )
                )
                k += 1

        timed.sort(key=lambda e: e.time_s)

        # Straggler episodes: drawn as the job simulator samples them,
        # from the same generator after the timed events.
        stragglers = []
        if self.straggler_rate > 0:
            stragglers = draw_stragglers(
                rng,
                num_iterations,
                self.straggler_rate,
                self.straggler_iterations,
                self.straggler_slowdown,
            )
        return EventTrace(timed + stragglers)


@dataclass(frozen=True)
class ScenarioPack:
    """A named, replayable workload + fault bundle."""

    name: str
    description: str
    arrival: ArrivalProcess = ArrivalProcess()
    classes: Tuple[JobClass, ...] = (JobClass("standard"),)
    faults: FaultProfile = FaultProfile()
    policy: str = "fair-share"

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("pack needs a name")
        if not self.classes:
            raise ValueError("pack needs at least one job class")
        names = [c.name for c in self.classes]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate job-class names: {sorted(names)}")

    # ------------------------------------------------------------------ #
    def assign_classes(
        self, num_jobs: int, seed: int
    ) -> List[JobClass]:
        """Weighted per-job class assignment, deterministic per seed."""
        if len(self.classes) == 1:
            return [self.classes[0]] * num_jobs
        weights = np.array([c.weight for c in self.classes], dtype=float)
        weights /= weights.sum()
        rng = np.random.default_rng([seed, _CLASS_STREAM])
        picks = rng.choice(len(self.classes), size=num_jobs, p=weights)
        return [self.classes[int(i)] for i in picks]

    def build_fleet(
        self,
        config: DistTrainConfig,
        cluster_gpus: int,
        num_jobs: int,
        seed: int = 0,
        scenario: Optional[ScenarioSpec] = None,
        policy: Optional[str] = None,
    ):
        """Expand the pack into a concrete
        :class:`~repro.fleet.spec.FleetSpec`.

        Args:
            config: Base training task; each class scales its cluster
                (whole nodes) and iteration budget from it.
            cluster_gpus: Shared-cluster capacity.
            num_jobs: Jobs to generate.
            seed: Master seed for arrivals, class mix, and faults.
            scenario: Base dynamics (recovery times, checkpointing,
                elasticity). Must not carry an event trace — the pack
                generates each job's trace. Sampled-fault knobs
                (``mtbf_gpu_hours``, ``straggler_rate``) are cleared:
                pack traces replace sampling entirely.
            policy: Override of the pack's scheduling policy.
        """
        # The catalog loads with every command's parser (``--pack``'s
        # choices); the fleet layer loads only when a pack is built.
        from repro.fleet.spec import FleetJobSpec, FleetSpec

        if num_jobs < 1:
            raise ValueError("num_jobs must be >= 1")
        scenario = scenario or ScenarioSpec()
        if scenario.events is not None:
            raise ValueError(
                "the pack generates each job's event trace; the base "
                "scenario must not carry one"
            )
        node = config.cluster.gpus_per_node
        base_nodes = max(1, config.cluster.num_gpus // node)
        arrivals = self.arrival.sample(num_jobs, seed)
        classes = self.assign_classes(num_jobs, seed)
        jobs = []
        for i, (arrival, cls) in enumerate(zip(arrivals, classes)):
            nodes = max(
                cls.min_nodes, int(round(base_nodes * cls.gpus_factor))
            )
            demand = min(nodes * node, cluster_gpus)
            job_config = (
                config
                if demand == config.cluster.num_gpus
                else config.with_(
                    cluster=resized_cluster(config.cluster, demand)
                )
            )
            iterations = max(
                1,
                int(round(scenario.num_iterations * cls.iterations_factor)),
            )
            events = self.faults.events_for(
                job_config.cluster, iterations, seed, i
            )
            job_scenario = scenario.with_(
                num_iterations=iterations,
                seed=scenario.seed + i,
                events=events,
                pack=self.name,
                mtbf_gpu_hours=None,
                straggler_rate=0.0,
            )
            jobs.append(
                FleetJobSpec(
                    name=f"job{i:02d}-{cls.name}",
                    config=job_config,
                    scenario=job_scenario,
                    arrival_s=float(arrival),
                    priority=cls.priority,
                    job_class=cls.name,
                    slo_factor=cls.slo_factor,
                )
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
        return FleetSpec(
            cluster=cluster,
            jobs=tuple(jobs),
            policy=policy or self.policy,
            pack=self.name,
        )

    def materialize(
        self,
        config: DistTrainConfig,
        cluster_gpus: int,
        num_jobs: int,
        seed: int = 0,
        scenario: Optional[ScenarioSpec] = None,
    ) -> Dict[str, Any]:
        """The expanded workload as a JSON-safe replayable document.

        This is what pack golden fixtures pin: arrivals, class mix,
        demands, deadlines, and every job's full v2 event trace. Two
        builds of the same ``(pack, task, seed)`` are byte-identical
        once serialized.
        """
        fleet = self.build_fleet(
            config, cluster_gpus, num_jobs, seed, scenario=scenario
        )
        return {
            "schema": 2,
            "pack": self.name,
            "seed": seed,
            "cluster_gpus": cluster_gpus,
            "policy": fleet.policy,
            "jobs": [
                {
                    "name": job.name,
                    "job_class": job.job_class,
                    "arrival_s": job.arrival_s,
                    "priority": job.priority,
                    "demand_gpus": job.demand_gpus,
                    "num_iterations": job.scenario.num_iterations,
                    "slo_factor": job.slo_factor,
                    "events": job.scenario.events.to_dicts(),
                }
                for job in fleet.jobs
            ],
        }


# --------------------------------------------------------------------- #
# The shipped catalog
# --------------------------------------------------------------------- #
PACKS: Dict[str, ScenarioPack] = {
    pack.name: pack
    for pack in [
        ScenarioPack(
            name="steady",
            description=(
                "Evenly spaced identical jobs, no faults: the pure "
                "contention baseline the old arrival_spacing_s grid "
                "expressed."
            ),
            arrival=ArrivalProcess(kind="fixed", spacing_s=120.0),
        ),
        ScenarioPack(
            name="diurnal-prod",
            description=(
                "Diurnal arrivals; latency-sensitive prod jobs with "
                "tight SLOs share the cluster with half-size batch "
                "fill under the priority policy."
            ),
            arrival=ArrivalProcess(
                kind="diurnal",
                rate_per_hour=6.0,
                peak_to_trough=4.0,
                period_s=86400.0,
            ),
            classes=(
                JobClass(
                    "prod", weight=2.0, priority=2, slo_factor=1.5
                ),
                JobClass(
                    "batch",
                    weight=1.0,
                    gpus_factor=0.5,
                    iterations_factor=2.0,
                    slo_factor=None,
                ),
            ),
            policy="priority",
        ),
        ScenarioPack(
            name="bursty-research",
            description=(
                "Research waves: synchronized arrival bursts of mixed-"
                "size jobs with loose SLOs, on spot capacity that gets "
                "reclaimed about once an hour."
            ),
            arrival=ArrivalProcess(
                kind="bursty",
                rate_per_hour=2.0,
                burst_size=3,
                burst_spacing_s=20.0,
            ),
            classes=(
                JobClass(
                    "explore",
                    weight=3.0,
                    gpus_factor=0.5,
                    iterations_factor=0.5,
                    slo_factor=4.0,
                ),
                JobClass("sweep", weight=1.0, slo_factor=6.0),
            ),
            faults=FaultProfile(
                spot_reclaim_rate_per_hour=1.0,
                spot_gpus=8,
                spot_duration_s=1200.0,
            ),
        ),
        ScenarioPack(
            name="blast-radius",
            description=(
                "Poisson arrivals under correlated rack/node failures "
                "and rolling per-rack maintenance windows — the "
                "topology-aware stress regime."
            ),
            arrival=ArrivalProcess(kind="poisson", rate_per_hour=4.0),
            classes=(JobClass("standard", slo_factor=3.0),),
            faults=FaultProfile(
                domain_failure_rate_per_hour=0.5,
                rack_fraction=0.3,
                maintenance_every_s=7200.0,
                maintenance_duration_s=1800.0,
            ),
        ),
    ]
}


def get_pack(name: str) -> ScenarioPack:
    """Look up a shipped pack by name, with a helpful error."""
    try:
        return PACKS[name]
    except KeyError:
        raise ValueError(
            f"unknown scenario pack {name!r}; known: {sorted(PACKS)}"
        ) from None
