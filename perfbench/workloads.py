"""The benchmark's workloads: inputs built from a seed, one call, checks.

Each workload is what a command-line user runs: a spec built in-process
(``build``), one library call that consumes it (``call``), and a
canonical digest of the call's result (``digest``) that the reference
file pins at the default seed. ``invariants`` holds on every seed, so a
claim can be re-checked on seeds not used while writing it.

Everything runs in one Python process with no worker processes: on a
small shared machine, multi-process runs would measure the scheduler,
not the program.
"""

from __future__ import annotations

import hashlib
import json
import shutil
from pathlib import Path
from typing import Any, Dict, List

#: The seed the reference digests in ``reference.json`` were taken at.
DEFAULT_SEED = 0

#: Orchestration solve time is measured wall-clock inside the program,
#: so it is left out of the sweep digest (everything else is simulated).
WALL_CLOCK_METRICS = ("solve_seconds",)

FLEET_ITERATIONS = 1000


def _fleet_spec(seed: int, stragglers: bool):
    from repro.core.config import DistTrainConfig
    from repro.fleet import FleetSpec
    from repro.scenarios import ScenarioSpec

    scenario = ScenarioSpec(
        num_iterations=FLEET_ITERATIONS,
        checkpoint_interval=50,
        mtbf_gpu_hours=60.0,
        elastic=True,
        repair_seconds=900.0,
        seed=seed,
    )
    if stragglers:
        scenario = scenario.with_(straggler_rate=0.02, straggler_slowdown=1.5)
    return FleetSpec.homogeneous(
        DistTrainConfig.preset("mllm-9b", 48, 16),
        cluster_gpus=480,
        num_jobs=100,
        job_gpus=48,
        arrival_spacing_s=120.0,
        priorities=(2, 1, 0) if stragglers else (1, 0),
        policy="priority" if stragglers else "fair-share",
        scenario=scenario,
    )


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


class FleetWorkload:
    """100 tenants x 1,000 iterations on 480 shared GPUs, in process."""

    def __init__(self, name: str, stragglers: bool):
        self.name = name
        self.stragglers = stragglers

    def build(self, seed: int, workdir: Path):
        return _fleet_spec(seed, self.stragglers)

    def call(self, spec):
        from repro.core.api import simulate_fleet

        return simulate_fleet(spec)

    def operations(self, spec) -> int:
        return len(spec.jobs)

    def digest(self, result) -> str:
        return _sha256(result.to_json())

    def headline(self, result) -> Dict[str, float]:
        metrics = result.metrics()
        return {
            "fleet_goodput": metrics["fleet_goodput"],
            "utilization": metrics["utilization"],
            "num_failures": metrics["num_failures"],
            "preemptions": metrics["preemptions"],
        }

    def invariants(self, spec, result) -> List[str]:
        problems = []
        if len(result.records) != len(spec.jobs):
            problems.append(
                f"{len(result.records)} records for {len(spec.jobs)} jobs"
            )
        for record in result.records:
            if (
                record.completion_s is None
                or record.result.num_iterations != FLEET_ITERATIONS
            ):
                problems.append(f"{record.name} did not complete")
        goodput = result.fleet_goodput
        if not 0.0 < goodput <= 1.0:
            problems.append(f"fleet goodput {goodput!r} outside (0, 1]")
        return problems

    def outcome(self, result) -> Dict[str, float]:
        # Plan-cache hit/miss counters depend on what the process ran
        # before, so a warm repeat is compared on its simulated metrics.
        return result.metrics()


class SweepWorkload:
    """The Fig 13/14 grid through the campaign runner, serially."""

    name = "paper-sweep"
    MODELS = ("mllm-9b", "mllm-15b", "mllm-72b")
    SYSTEMS = ("disttrain", "megatron-lm")

    def __init__(self):
        self._runs = 0

    def build(self, seed: int, workdir: Path):
        from repro.experiments import SweepSpec

        self.workdir = workdir
        return SweepSpec.grid(
            models=self.MODELS,
            systems=self.SYSTEMS,
            gpus=[1296],
            gbs=1920,
            name="paper-sweep",
            seed=seed,
        )

    def call(self, spec):
        from repro.experiments import CampaignRunner, ResultCache

        # Every call gets an empty result cache and journal, so a repeat
        # measures the process-wide caches, not cache-file reads.
        self._runs += 1
        root = self.workdir / f"campaign-{self._runs}"
        shutil.rmtree(root, ignore_errors=True)
        return CampaignRunner(
            spec,
            cache=ResultCache(root / "cache"),
            processes=1,
            journal_dir=root / "cache",
        ).run()

    def operations(self, spec) -> int:
        return spec.num_trials

    @staticmethod
    def _canonical(result) -> List[Any]:
        rows = []
        for record in result.records:
            metrics = {
                key: value
                for key, value in (record.metrics or {}).items()
                if key not in WALL_CLOCK_METRICS
            }
            rows.append({
                "params": record.params,
                "status": record.status,
                "metrics": metrics,
            })
        return sorted(rows, key=lambda row: json.dumps(row, sort_keys=True))

    def digest(self, result) -> str:
        return _sha256(json.dumps(self._canonical(result), sort_keys=True))

    def headline(self, result) -> Dict[str, float]:
        return {
            f"{r.params['model']}/{r.params['system']}.mfu": r.metrics["mfu"]
            for r in result.records
            if r.ok
        }

    def invariants(self, spec, result) -> List[str]:
        problems = []
        if len(result.records) != spec.num_trials:
            problems.append(
                f"{len(result.records)} records for {spec.num_trials} trials"
            )
        for record in result.records:
            if not record.ok:
                problems.append(f"{record.label()} {record.status}")
            elif not 0.0 < record.metrics["mfu"] <= 1.0:
                problems.append(f"{record.label()} mfu outside (0, 1]")
        return problems

    def outcome(self, result) -> List[Any]:
        return self._canonical(result)


def get(name: str):
    """A fresh workload object by benchmark name."""
    if name == "fleet-elastic":
        return FleetWorkload(name, stragglers=False)
    if name == "fleet-stragglers":
        return FleetWorkload(name, stragglers=True)
    if name == "paper-sweep":
        return SweepWorkload()
    raise ValueError(f"unknown workload {name!r}; known: {NAMES}")


NAMES = ("fleet-elastic", "fleet-stragglers", "paper-sweep")
