"""Golden snapshots: the canonical scenarios and the fault-tolerance
ablation.

Fixtures live in ``tests/scenarios/golden`` with every float serialized
as a C99 hex string — the comparison refuses a single ULP of drift. Any
intentional semantics change must re-bless them via::

    PYTHONPATH=src python -m tests.scenarios.golden.regen
"""

import json

from tests.scenarios.golden.regen import (
    ABLATION_INTERVALS,
    DIFF_LINES,
    GOLDEN_DIR,
    ablation_fixture,
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


def test_ablation_scenario_matches_golden():
    expected = load_fixture("scenario_ablation")
    actual = ablation_fixture()
    for got, want in zip(actual["intervals"], expected["intervals"]):
        assert got["metrics"] == want["metrics"], want["name"]
    assert actual == expected


def test_goodput_fixtures_exercise_failures():
    # Every ablation interval must actually fail and replay work
    # (otherwise the snapshot would not pin the rollback arithmetic),
    # and sparser checkpoints replay more.
    intervals = load_fixture("scenario_ablation")["intervals"]
    assert [case["name"] for case in intervals] == [
        f"scenario_ablation_{interval}" for interval in ABLATION_INTERVALS
    ]
    assert all(case["num_failures"] > 0 for case in intervals)
    replayed = [case["replayed_iterations"] for case in intervals]
    assert 0 < replayed[0] <= replayed[-1]


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



def test_orphaned_fixtures_fail_check_and_go_on_write(tmp_path, capsys):
    """A ``*.json`` beside the owned fixtures that no pair regenerates
    fails ``--check`` as ``ORPHAN``; writing deletes it. Files of other
    types and other directories are not the regen's."""
    owned = tmp_path / "owned.json"
    orphan = tmp_path / "retired.json"
    notes = tmp_path / "notes.txt"
    elsewhere = tmp_path / "other" / "kept.json"
    elsewhere.parent.mkdir()
    for path in (owned, orphan, notes, elsewhere):
        path.write_text("{}")
    pairs = [(owned, "{}")]
    assert sync_fixtures(pairs, True, "tests.example.regen") == 1
    out = capsys.readouterr().out.splitlines()
    assert out == [
        f"ok    {owned}",
        f"ORPHAN {orphan}",
        "1 fixture(s) have no case that regenerates them; remove with: "
        "PYTHONPATH=src python -m tests.example.regen",
    ]
    assert orphan.exists()
    assert sync_fixtures(pairs, False, "tests.example.regen") == 0
    out = capsys.readouterr().out.splitlines()
    assert out == [f"wrote {owned}", f"removed {orphan}"]
    assert not orphan.exists()
    assert notes.exists() and elsewhere.exists()
    assert sync_fixtures(pairs, True, "tests.example.regen") == 0
