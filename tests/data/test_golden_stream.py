"""Golden data stream: every ``take`` call of a seed x ``seq_len`` x
call-size grid, pinned bit for bit.

The fixture lives in ``tests/data/golden/stream.json`` (one row per
call: sample count, first/last id, next id, a sha256 of the samples and
one of the RNG state). Any intentional change to what the synthetic
dataset draws must re-bless it via::

    PYTHONPATH=src python -m tests.data.golden.regen
"""

import json

from tests.data.golden.regen import FIXTURE, fixture_text, rows

REBLESS = "PYTHONPATH=src python -m tests.data.golden.regen"


def test_stream_matches_golden():
    assert FIXTURE.exists(), f"missing golden fixture {FIXTURE}; run {REBLESS}"
    expected = json.loads(FIXTURE.read_text(encoding="utf-8"))
    actual = rows()
    assert [r["case"] for r in actual] == [r["case"] for r in expected]
    moved = [a["case"] for a, e in zip(actual, expected) if a != e]
    assert not moved, (
        f"{len(moved)} take call(s) moved, first {moved[:5]}; {REBLESS}"
    )
    assert fixture_text(actual) == FIXTURE.read_text(encoding="utf-8")


def test_golden_grid_covers_truncation_and_large_draws():
    """The grid must keep probing a one-token sequence (every span
    truncated, every sequence exactly full) and paper-sweep's draws."""
    expected = {r["case"]: r for r in json.loads(
        FIXTURE.read_text(encoding="utf-8")
    )}
    assert len(expected) == 76
    assert "laion/seed0/seq1/take5+3+17/call2" in expected
    big = expected["laion/seed0/seq8192/take1920/call0"]
    assert big["samples"] == 1920
    assert big["first_id"] == 0
    assert big["next_id"] >= 1920
