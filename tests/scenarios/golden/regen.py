"""Regenerate (or check) the golden scenario fixtures.

Run after an *intentional* semantics change to the failure/goodput model
or the scenario engine::

    PYTHONPATH=src python -m tests.scenarios.golden.regen

or verify that every fixture on disk matches what the current code
produces, byte for byte (the CI replay-smoke step)::

    PYTHONPATH=src python -m tests.scenarios.golden.regen --check

Two fixture families, mirroring ``tests/pipeline/golden``:

* ``scenario_canonical.json`` — one failure + straggler + elastic
  scenario through the full engine, and ``scenario_microbatch4.json``
  — the same scenario with four-sample microbatches (GBS 64), which
  pins iteration pricing for microbatches of more than one sample;
  ``scenario_ablation.json`` — the fault-tolerance ablation's four
  checkpoint intervals (MLLM-72B on 1,296 GPUs under sampled
  failures), which pins the goodput of failure rollback;
* ``packs/pack_*.json`` — every shipped scenario pack expanded on the
  canonical task (arrivals, class mix, SLOs, and each job's full v2
  event trace — the pack's replayable golden trace).

All floats serialize as C99 hex strings (or exact JSON ``repr`` floats
for pack workload documents) so the comparison is bit-exact: any change
that perturbs a single ULP of any metric fails the snapshot suite and
must be re-blessed here.
"""

from __future__ import annotations

import difflib
import itertools
import json
import sys
from pathlib import Path

from repro.core.config import DistTrainConfig
from repro.scenarios import PACKS, ScenarioSpec, run_scenario

GOLDEN_DIR = Path(__file__).resolve().parent
PACK_GOLDEN_DIR = GOLDEN_DIR / "packs"

#: The canonical pack-expansion case every shipped pack is pinned on.
PACK_CASE = dict(cluster_gpus=96, num_jobs=6, seed=0)


def pack_case_inputs():
    """(task config, base scenario) for the pack golden fixtures."""
    config = DistTrainConfig.preset("mllm-9b", 48, 16)
    scenario = ScenarioSpec(
        num_iterations=60,
        checkpoint_interval=20,
        restart_seconds=60.0,
        checkpoint_load_seconds=30.0,
        elastic=True,
        repair_seconds=400.0,
    )
    return config, scenario


def scenario_case():
    """The canonical failure + straggler + elastic scenario."""
    config = DistTrainConfig.preset("mllm-9b", 48, 16)
    spec = ScenarioSpec(
        num_iterations=400,
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


def scenario_microbatch4_case():
    """The canonical scenario at ``microbatch_size=4`` and GBS 64."""
    config, spec = scenario_case()
    return config.with_(microbatch_size=4, global_batch_size=64), spec


#: The fault-tolerance ablation's checkpoint intervals
#: (``benchmarks/test_ablation_fault_tolerance.py``).
ABLATION_INTERVALS = (10, 50, 200, 800)


def ablation_case(interval):
    """The ablation's MLLM-72B run checkpointing every ``interval``
    iterations under failures sampled at 30,000 GPU-hours MTBF."""
    config = DistTrainConfig.preset("mllm-72b", 1296, 1920)
    spec = ScenarioSpec(
        num_iterations=800,
        checkpoint_interval=interval,
        mtbf_gpu_hours=30_000.0,
        seed=11,
    )
    return config, spec


def scenario_fixture(name="scenario_canonical", case=scenario_case):
    config, spec = case()
    result = run_scenario(config, spec)
    metrics = {
        key: (value.hex() if isinstance(value, float) else value)
        for key, value in result.metrics().items()
    }
    return {
        "name": name,
        "metrics": metrics,
        "goodput": result.goodput.hex(),
        "num_failures": result.num_failures,
        "replayed_iterations": result.replayed_iterations,
        "num_replans": result.num_replans,
        "min_gpus": result.min_gpus,
        "final_gpus": result.final_gpus,
        "iteration_times": [
            float(t).hex() for t in result.iteration_times
        ],
        "mfu_trajectory": [float(m).hex() for m in result.mfu_trajectory],
        "events": result.events.to_dicts(),
    }


def ablation_fixture():
    """Every ablation interval's :func:`scenario_fixture`."""
    return {
        "name": "scenario_ablation",
        "intervals": [
            scenario_fixture(
                f"scenario_ablation_{interval}",
                lambda interval=interval: ablation_case(interval),
            )
            for interval in ABLATION_INTERVALS
        ],
    }


def pack_fixture(pack):
    """One shipped pack's replayable golden workload document."""
    config, scenario = pack_case_inputs()
    return pack.materialize(config, scenario=scenario, **PACK_CASE)


def all_fixtures():
    """Every (path, serialized text) pair this script owns."""
    pairs = []
    for name, case in (
        ("scenario_canonical", scenario_case),
        ("scenario_microbatch4", scenario_microbatch4_case),
    ):
        fixture = scenario_fixture(name, case)
        pairs.append(
            (GOLDEN_DIR / f"{name}.json",
             json.dumps(fixture, indent=1) + "\n")
        )
    pairs.append(
        (GOLDEN_DIR / "scenario_ablation.json",
         json.dumps(ablation_fixture(), indent=1) + "\n")
    )
    for name in sorted(PACKS):
        fixture = pack_fixture(PACKS[name])
        pairs.append(
            (PACK_GOLDEN_DIR / f"pack_{name}.json",
             json.dumps(fixture, indent=1) + "\n")
        )
    return pairs


#: Lines of unified diff printed under each stale fixture.
DIFF_LINES = 20


def fixture_text(fixture_rows) -> str:
    """A JSON list with one sorted-key row per line, so a unified diff
    names exactly the rows that moved."""
    lines = ",\n".join(
        json.dumps(row, sort_keys=True) for row in fixture_rows
    )
    return f"[\n{lines}\n]\n"


def sync_fixtures(pairs, check: bool, module: str) -> int:
    """Write every ``(path, text)`` pair, or with ``check`` compare each
    to the file on disk and print the head of a unified diff under each
    stale one; returns the process exit code. ``module`` is the regen
    module named in the re-bless hint.

    A ``*.json`` in a pair's directory that no pair writes is an
    orphan: a fixture whose case is gone, which nothing checks any
    more. ``check`` reports it as ``ORPHAN`` and fails; writing deletes
    it. Each fixture directory has one owning regen module."""
    stale = []
    for path, text in pairs:
        if check:
            on_disk = (
                path.read_text(encoding="utf-8")
                if path.exists()
                else None
            )
            if on_disk != text:
                stale.append(path)
                print(f"STALE {path}")
                diff = difflib.unified_diff(
                    (on_disk or "").splitlines(),
                    text.splitlines(),
                    f"{path} (on disk)",
                    f"{path} (regenerated)",
                    lineterm="",
                )
                for line in itertools.islice(diff, DIFF_LINES):
                    print(line)
            else:
                print(f"ok    {path}")
        else:
            path.write_text(text, encoding="utf-8")
            print(f"wrote {path}")
    owned = {path for path, _ in pairs}
    orphans = sorted(
        path
        for directory in {path.parent for path in owned}
        for path in directory.glob("*.json")
        if path not in owned
    )
    for path in orphans:
        if check:
            print(f"ORPHAN {path}")
        else:
            path.unlink()
            print(f"removed {path}")
    if stale:
        print(
            f"{len(stale)} fixture(s) diverge from the current code; "
            f"re-bless with: PYTHONPATH=src python -m {module}"
        )
    if check and orphans:
        print(
            f"{len(orphans)} fixture(s) have no case that regenerates "
            f"them; remove with: PYTHONPATH=src python -m {module}"
        )
    return 1 if stale or (check and orphans) else 0


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    PACK_GOLDEN_DIR.mkdir(exist_ok=True)
    return sync_fixtures(
        all_fixtures(), "--check" in argv, "tests.scenarios.golden.regen"
    )


if __name__ == "__main__":
    raise SystemExit(main())
