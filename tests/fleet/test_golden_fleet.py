"""Golden fleet results: every policy over every shipped pack and a
sampled failure + straggler fleet, pinned bit for bit.

Fixtures live in ``tests/fleet/golden`` (hex-float metrics and per-job
rows, plus the sha256 of the full ``FleetResult.to_json()``). Any
intentional semantics change must re-bless them via::

    PYTHONPATH=src python -m tests.fleet.golden.regen
"""

import json

import pytest

from tests.fleet.golden.regen import (
    GOLDEN_DIR,
    cases,
    cold_run,
    fleet_fixture,
)

REBLESS = "PYTHONPATH=src python -m tests.fleet.golden.regen"


def load_fixture(name: str) -> dict:
    path = GOLDEN_DIR / f"{name}.json"
    assert path.exists(), f"missing golden fixture {path}; run {REBLESS}"
    return json.loads(path.read_text(encoding="utf-8"))


@pytest.mark.parametrize("name,build", cases(), ids=[c[0] for c in cases()])
def test_fleet_matches_golden(name, build):
    expected = load_fixture(name)
    actual = fleet_fixture(name, cold_run(build()))
    assert actual["metrics"] == expected["metrics"]
    assert actual["records"] == expected["records"]
    assert actual == expected, f"full-result digest drifted; {REBLESS}"


def test_golden_fleets_exercise_dynamics():
    """The fixture set must stay a meaningful probe: failures, replans
    and preemptions all have to occur somewhere in it."""
    metrics = [load_fixture(name)["metrics"] for name, _ in cases()]

    def total(key):
        return sum(float.fromhex(m[key]) for m in metrics)

    assert total("num_failures") > 0
    assert total("num_replans") > 0
    assert total("preemptions") > 0
