"""Golden reordering orders: Algorithm 1's sample order and every
simulated rank's Algorithm 2 order on the benchmark workloads' batches,
plus ``reorder_ranks`` on a few seeded cost models, pinned exactly.

The fixture lives in ``tests/reordering/golden/orders.json`` (one row
per case and one per simulated rank). Any intentional change to what
either reordering returns must re-bless it via::

    PYTHONPATH=src python -m tests.reordering.golden.regen
"""

import json

from tests.reordering.golden.regen import (
    COST_CASES,
    FIXTURE,
    cost_model,
    fixture_text,
    rows,
)
from tests.reordering.test_inter import _resweeping_reorder

REBLESS = "PYTHONPATH=src python -m tests.reordering.golden.regen"


def test_orders_match_golden():
    assert FIXTURE.exists(), f"missing golden fixture {FIXTURE}; run {REBLESS}"
    expected = json.loads(FIXTURE.read_text(encoding="utf-8"))
    actual = rows()
    assert [r["case"] for r in actual] == [r["case"] for r in expected]
    moved = [a["case"] for a, e in zip(actual, expected) if a != e]
    assert not moved, (
        f"{len(moved)} order(s) moved, first {moved[:5]}; {REBLESS}"
    )
    assert fixture_text(actual) == FIXTURE.read_text(encoding="utf-8")


def test_cost_cases_reach_no_final_interval():
    """The seeded cost-model rows pin orders where every step re-prices
    its prefix: no step's first stage-0 gap ends in the body."""
    for style, l, p, vpp, comms in COST_CASES:
        for seed, comm in enumerate(comms):
            costs = cost_model(style, seed, l, p, comm)
            found = []
            _resweeping_reorder(costs, vpp, found)
            assert "body" not in found, (style, seed, found)
