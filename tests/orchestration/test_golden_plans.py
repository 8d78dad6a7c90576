"""Golden orchestration plans: every orchestrator over a 960-case task
grid, pinned bit for bit.

The fixture lives in ``tests/orchestration/golden/plans.json`` (one row
per case: module plans, candidate, hex-float breakdown and refined
makespan, search counts, or the raised exception). Any intentional
change to what an orchestrator plans must re-bless it via::

    PYTHONPATH=src python -m tests.orchestration.golden.regen
"""

import json

from tests.orchestration.golden.regen import (
    FIXTURE,
    fixture_text,
    rows,
)

REBLESS = "PYTHONPATH=src python -m tests.orchestration.golden.regen"


def test_plans_match_golden():
    assert FIXTURE.exists(), f"missing golden fixture {FIXTURE}; run {REBLESS}"
    expected = json.loads(FIXTURE.read_text(encoding="utf-8"))
    actual = rows()
    assert [r["case"] for r in actual] == [r["case"] for r in expected]
    moved = [
        a["case"] for a, e in zip(actual, expected) if a != e
    ]
    assert not moved, (
        f"{len(moved)} plan(s) moved, first {moved[:5]}; {REBLESS}"
    )
    assert fixture_text(actual) == FIXTURE.read_text(encoding="utf-8")


def test_golden_grid_covers_plans_and_failures():
    """The fixture must keep probing both outcomes: most cases plan,
    and infeasible clusters raise the typed error."""
    expected = json.loads(FIXTURE.read_text(encoding="utf-8"))
    outcomes = [r.get("error", "plan") for r in expected]
    assert len(outcomes) == 960
    assert outcomes.count("plan") > 700
    assert outcomes.count("InfeasibleClusterError") > 100
