"""Regenerate (or check) the golden flight-recorder trace.

Run after an *intentional* change to the instrumentation points, the
trace schema, or the engine semantics::

    PYTHONPATH=src python -m tests.obs.golden.regen

or verify that the fixture on disk matches what the current code
produces, byte for byte (the CI replay-smoke step)::

    PYTHONPATH=src python -m tests.obs.golden.regen --check

The fixture pins the complete JSONL byte stream of a canonical
elastic-failure scenario traced on a deterministic integer clock, plus
the counters and gauges of the metrics snapshot. Wall-clock histograms
(e.g. ``orch.solve_seconds``) are deliberately *not* pinned — they
measure real time and can never be bit-stable.

Determinism preconditions: every process-level cache is cleared first,
because a warm plan/profile/kernel/job-state cache legitimately changes
which spans and counters a run emits.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

from repro.core.api import BATCH_CACHE, PROFILE_CACHE
from repro.core.config import DistTrainConfig
from repro.fleet.job import STATE_CACHE
from repro.obs import METRICS, instrument
from repro.orchestration.plancache import PLAN_CACHE
from repro.orchestration.problem import PROFILER_CACHE
from repro.pipeline.kernel import clear_kernel_cache
from repro.scenarios import ScenarioSpec, run_scenario

from tests.scenarios.golden.regen import sync_fixtures

GOLDEN_DIR = Path(__file__).resolve().parent


class GoldenClock:
    """0.0, 1.0, 2.0, ... — one tick per tracer clock read."""

    def __init__(self) -> None:
        self.now = -1.0

    def __call__(self) -> float:
        self.now += 1.0
        return self.now


def trace_case():
    """The canonical traced scenario: failures, stragglers, elastic."""
    config = DistTrainConfig.preset("mllm-9b", 48, 16)
    spec = ScenarioSpec(
        num_iterations=120,
        checkpoint_interval=20,
        mtbf_gpu_hours=3.0,
        restart_seconds=60.0,
        checkpoint_load_seconds=30.0,
        straggler_rate=0.03,
        straggler_slowdown=1.8,
        elastic=True,
        repair_seconds=400.0,
        seed=5,
    )
    return config, spec


def reset_process_caches() -> None:
    clear_kernel_cache()
    PLAN_CACHE.clear()
    PROFILE_CACHE.clear()
    BATCH_CACHE.clear()
    PROFILER_CACHE.clear()
    STATE_CACHE.clear()
    METRICS.reset()


def trace_fixture():
    config, spec = trace_case()
    reset_process_caches()
    with instrument.session(trace=True, clock=GoldenClock()) as tracer:
        run_scenario(config, spec)
        snapshot = METRICS.snapshot()
    return {
        "name": "trace_canonical",
        "jsonl": tracer.to_jsonl(),  # no metrics line: bytes must pin
        "counters": snapshot["counters"],
        "gauges": snapshot["gauges"],
    }


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    pairs = [(
        GOLDEN_DIR / "trace_canonical.json",
        json.dumps(trace_fixture(), indent=1) + "\n",
    )]
    return sync_fixtures(pairs, "--check" in argv, "tests.obs.golden.regen")


if __name__ == "__main__":
    raise SystemExit(main())
