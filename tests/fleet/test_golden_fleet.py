"""Golden fleet results: every policy over every shipped pack and a
sampled failure + straggler fleet, pinned bit for bit.

Fixtures live in ``tests/fleet/golden`` (hex-float metrics and per-job
rows, plus the sha256 of the full ``FleetResult.to_json()``). Any
intentional semantics change must re-bless them via::

    PYTHONPATH=src python -m tests.fleet.golden.regen

Each fixture is checked twice: from cold caches, as blessed, and warm,
right after another golden spec with no cache cleared in between.
"""

import json

import pytest

from repro.fleet import FleetEngine

from tests.fleet.golden.regen import (
    GOLDEN_DIR,
    cases,
    cold_run,
    fleet_fixture,
)

REBLESS = "PYTHONPATH=src python -m tests.fleet.golden.regen"

CASES = cases()
IDS = [name for name, _ in CASES]


def load_fixture(name: str) -> dict:
    path = GOLDEN_DIR / f"{name}.json"
    assert path.exists(), f"missing golden fixture {path}; run {REBLESS}"
    return json.loads(path.read_text(encoding="utf-8"))


def check(name: str, actual: dict) -> None:
    expected = load_fixture(name)
    assert actual["metrics"] == expected["metrics"]
    assert actual["records"] == expected["records"]
    assert actual == expected, f"full-result digest drifted; {REBLESS}"


@pytest.mark.parametrize("name,build", CASES, ids=IDS)
def test_fleet_matches_golden(name, build):
    check(name, fleet_fixture(name, cold_run(build())))


@pytest.mark.parametrize("name,build", CASES, ids=IDS)
def test_fleet_matches_golden_warm(name, build):
    """The preceding golden spec warms every process-wide cache first;
    the result, plan counters included, must not notice."""
    _, previous = CASES[IDS.index(name) - 1]
    FleetEngine(previous()).run()
    check(name, fleet_fixture(name, FleetEngine(build()).run()))


def test_golden_fleets_exercise_dynamics():
    """The fixture set must stay a meaningful probe: failures, replans
    and preemptions all have to occur somewhere in it."""
    metrics = [load_fixture(name)["metrics"] for name in IDS]

    def total(key):
        return sum(float.fromhex(m[key]) for m in metrics)

    assert total("num_failures") > 0
    assert total("num_replans") > 0
    assert total("preemptions") > 0
