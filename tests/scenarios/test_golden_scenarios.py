"""Golden snapshots: the failure model and one canonical scenario.

Fixtures live in ``tests/scenarios/golden`` with every float serialized
as a C99 hex string — the comparison refuses a single ULP of drift. Any
intentional semantics change must re-bless them via::

    PYTHONPATH=src python -m tests.scenarios.golden.regen
"""

import json

import pytest

from tests.scenarios.golden.regen import (
    DIFF_LINES,
    GOLDEN_DIR,
    goodput_cases,
    goodput_fixture,
    scenario_fixture,
    scenario_microbatch4_case,
    sync_fixtures,
)


def load_fixture(name: str) -> dict:
    path = GOLDEN_DIR / f"{name}.json"
    assert path.exists(), (
        f"missing golden fixture {path}; run "
        f"PYTHONPATH=src python -m tests.scenarios.golden.regen"
    )
    return json.loads(path.read_text())


@pytest.mark.parametrize(
    "name,kwargs", goodput_cases(), ids=[c[0] for c in goodput_cases()]
)
def test_run_with_failures_matches_golden(name, kwargs):
    expected = load_fixture(name)
    actual = goodput_fixture(name, kwargs)
    assert actual == expected


def test_goodput_fixtures_exercise_failures():
    # The flaky canonical case must actually fail (otherwise the
    # snapshot would not pin the rollback arithmetic).
    flaky = load_fixture("run_with_failures_flaky")
    assert flaky["num_failures"] > 0
    assert flaky["replayed_iterations"] > 0


def test_canonical_scenario_matches_golden():
    expected = load_fixture("scenario_canonical")
    actual = scenario_fixture()
    assert actual["metrics"] == expected["metrics"]
    assert actual["iteration_times"] == expected["iteration_times"]
    assert actual["mfu_trajectory"] == expected["mfu_trajectory"]
    assert actual["events"] == expected["events"]
    assert actual == expected


def test_microbatch4_scenario_matches_golden():
    """Four-sample microbatches: the only golden whose iterations sum
    more than one sample's module times per microbatch."""
    config, _ = scenario_microbatch4_case()
    assert config.microbatch_size == 4
    expected = load_fixture("scenario_microbatch4")
    actual = scenario_fixture(
        "scenario_microbatch4", scenario_microbatch4_case
    )
    assert actual["metrics"] == expected["metrics"]
    assert actual["iteration_times"] == expected["iteration_times"]
    assert actual["mfu_trajectory"] == expected["mfu_trajectory"]
    assert actual == expected


def test_canonical_scenario_exercises_dynamics():
    # The canonical fixture must cover a failure, an elastic shrink AND
    # the repair re-growth, and straggler episodes.
    fixture = load_fixture("scenario_canonical")
    assert fixture["num_failures"] >= 1
    assert fixture["num_replans"] >= 2
    assert fixture["min_gpus"] < fixture["final_gpus"]
    kinds = {event["kind"] for event in fixture["events"]}
    assert kinds == {"failure", "straggler"}


def test_check_prints_diff_head_of_stale_fixtures(tmp_path, capsys):
    """``--check`` leaves fixtures alone, exits 1, and prints the head
    of a unified diff under each stale one (every regen script shares
    ``sync_fixtures``)."""
    lines = [f"line {i}" for i in range(60)]
    fresh = tmp_path / "fresh.json"
    stale = tmp_path / "stale.json"
    missing = tmp_path / "missing.json"
    fresh.write_text("\n".join(lines))
    stale.write_text("\n".join(lines))
    moved = lines[:30] + ["line 30 moved"] + lines[31:]
    pairs = [
        (fresh, "\n".join(lines)),
        (stale, "\n".join(moved)),
        (missing, "\n".join(lines)),
    ]
    assert sync_fixtures(pairs, True, "tests.example.regen") == 1
    out = capsys.readouterr().out.splitlines()
    assert stale.read_text() == "\n".join(lines)
    assert not missing.exists()
    assert f"ok    {fresh}" in out
    head = out[out.index(f"STALE {stale}") + 1:out.index(f"STALE {missing}")]
    assert head[0] == f"--- {stale} (on disk)"
    assert head[1] == f"+++ {stale} (regenerated)"
    assert "-line 30" in head and "+line 30 moved" in head
    missing_head = out[out.index(f"STALE {missing}") + 1:-1]
    assert len(missing_head) == DIFF_LINES
    assert out[-1].startswith("2 fixture(s) diverge")

