"""Regenerate (or check) the golden fleet-result fixtures.

Run after an *intentional* semantics change to the fleet engine, the
scheduling policies, or the per-job state machine::

    PYTHONPATH=src python -m tests.fleet.golden.regen

or verify that every fixture on disk matches what the current code
produces, byte for byte (the CI replay-smoke step)::

    PYTHONPATH=src python -m tests.fleet.golden.regen --check

Two case families, each run under every scheduling policy from cold
plan and job-state caches:

* ``pack_<pack>_<policy>.json`` — every shipped scenario pack on the
  canonical pack case (:data:`~tests.scenarios.golden.regen.PACK_CASE`),
  with enough iterations that the packs' correlated failures, outages,
  replans and SLO misses actually fire;
* ``sampled_<policy>.json`` — four 48-GPU jobs on 96 GPUs under sampled
  failures and stragglers (no pack has stragglers, so only these cases
  drive fused cross-tenant straggler pricing), with two priority
  classes so the priority policy preempts.

A fixture pins the hex-float ``FleetResult.metrics()``, every per-job
``row()``, and the sha256 of the full ``FleetResult.to_json()`` (every
trajectory and realized event trace; about 190 KB per pack case, so
only its digest is committed).
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path
from typing import Any, Callable, Dict, List, Tuple

from repro.core.api import BATCH_CACHE
from repro.core.config import DistTrainConfig
from repro.fleet import FleetEngine, FleetResult, FleetSpec
from repro.fleet.job import STATE_CACHE
from repro.orchestration.plancache import PLAN_CACHE
from repro.scenarios import PACKS, ScenarioSpec

from tests.fleet.conftest import FAST_RECOVERY
from tests.scenarios.golden.regen import (
    PACK_CASE,
    pack_case_inputs,
    sync_fixtures,
)

GOLDEN_DIR = Path(__file__).resolve().parent

POLICIES = ("fifo", "fair-share", "priority")

#: Pack-case iteration budget: at the pack goldens' 60 iterations no
#: pack sees a failure, replan or preemption.
PACK_ITERATIONS = 600


def pack_spec(pack: str, policy: str) -> FleetSpec:
    config, scenario = pack_case_inputs()
    return PACKS[pack].build_fleet(
        config,
        scenario=scenario.with_(num_iterations=PACK_ITERATIONS),
        policy=policy,
        **PACK_CASE,
    )


def sampled_spec(policy: str) -> FleetSpec:
    config = DistTrainConfig.preset("mllm-9b", 48, 16)
    scenario = ScenarioSpec(
        num_iterations=80,
        checkpoint_interval=20,
        mtbf_gpu_hours=3.0,
        straggler_rate=0.1,
        elastic=True,
        repair_seconds=300.0,
        seed=7,
        **FAST_RECOVERY,
    )
    return FleetSpec.homogeneous(
        config,
        cluster_gpus=96,
        num_jobs=4,
        job_gpus=48,
        arrival_spacing_s=60.0,
        priorities=(1, 0),
        policy=policy,
        scenario=scenario,
    )


def cases() -> List[Tuple[str, Callable[[], FleetSpec]]]:
    """(fixture name, spec builder) for every golden fleet case."""
    out = []
    for pack in sorted(PACKS):
        for policy in POLICIES:
            out.append((
                f"pack_{pack}_{policy}",
                lambda pack=pack, policy=policy: pack_spec(pack, policy),
            ))
    for policy in POLICIES:
        out.append((
            f"sampled_{policy}",
            lambda policy=policy: sampled_spec(policy),
        ))
    return out


def cold_run(spec: FleetSpec) -> FleetResult:
    """One fleet run from cold plan, job-state and batch caches.

    Plan hit/miss counters are counted per run, so a result does not
    depend on cache warmth, but the work that produces it does: this is
    for the blessing pass and for callers that count state builds or
    straggler pricings.
    """
    PLAN_CACHE.clear()
    STATE_CACHE.clear()
    BATCH_CACHE.clear()
    return FleetEngine(spec).run()


def _hex(value: Any) -> Any:
    return value.hex() if isinstance(value, float) else value


def fleet_fixture(name: str, result: FleetResult) -> Dict[str, Any]:
    return {
        "name": name,
        "metrics": {k: _hex(v) for k, v in result.metrics().items()},
        "records": [
            {k: _hex(v) for k, v in r.row().items()}
            for r in result.records
        ],
        "sha256": hashlib.sha256(
            result.to_json().encode("utf-8")
        ).hexdigest(),
    }


def all_fixtures() -> List[Tuple[Path, str]]:
    """Every (path, serialized text) pair this script owns."""
    return [
        (
            GOLDEN_DIR / f"{name}.json",
            json.dumps(fleet_fixture(name, cold_run(build())), indent=1)
            + "\n",
        )
        for name, build in cases()
    ]


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    return sync_fixtures(
        all_fixtures(), "--check" in argv, "tests.fleet.golden.regen"
    )


if __name__ == "__main__":
    raise SystemExit(main())
