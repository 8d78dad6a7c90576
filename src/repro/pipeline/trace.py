"""Pipeline execution traces and bubble accounting.

A :class:`PipelineTrace` records when every forward/backward op ran and
derives the quantities the paper reasons about: iteration (pipeline)
makespan, per-stage busy/idle time, bubble fraction, and the idle
*intervals* at the first stage that Algorithm 2's GETINTERVAL inspects
(Figure 12).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

from repro.numerics import fold_sum
from repro.pipeline.ops import PipelineOp


@dataclass(frozen=True)
class OpRecord:
    """Timing of one executed op."""

    op: PipelineOp
    start: float
    end: float

    def __post_init__(self) -> None:
        if self.end < self.start:
            raise ValueError("op ends before it starts")

    @property
    def duration(self) -> float:
        return self.end - self.start


@dataclass
class PipelineTrace:
    """Complete timing of one pipeline iteration."""

    num_stages: int
    num_microbatches: int
    vpp: int
    records: List[OpRecord]

    def __post_init__(self) -> None:
        self._by_stage: Dict[int, List[OpRecord]] = {}
        for record in sorted(self.records, key=lambda r: (r.start, r.end)):
            self._by_stage.setdefault(record.op.stage, []).append(record)

    # ------------------------------------------------------------------ #
    # Headline numbers
    # ------------------------------------------------------------------ #
    @property
    def makespan(self) -> float:
        """Pipeline phase duration (start of first op to end of last)."""
        if not self.records:
            return 0.0
        return max(r.end for r in self.records)

    def stage_records(self, stage: int) -> List[OpRecord]:
        return list(self._by_stage.get(stage, []))

    def stage_busy_time(self, stage: int) -> float:
        return fold_sum(r.duration for r in self._by_stage.get(stage, []))

    def stage_bubble_time(self, stage: int) -> float:
        """Idle time at ``stage`` within the pipeline makespan."""
        return self.makespan - self.stage_busy_time(stage)

    def bubble_fraction(self) -> float:
        """Mean idle fraction across stages — the paper's pipeline-bubble
        measure."""
        if self.makespan == 0:
            return 0.0
        total_busy = fold_sum(
            self.stage_busy_time(s) for s in range(self.num_stages)
        )
        capacity = self.makespan * self.num_stages
        return 1.0 - total_busy / capacity

    # ------------------------------------------------------------------ #
    # First-stage intervals (Algorithm 2's GETINTERVAL view)
    # ------------------------------------------------------------------ #
    def stage_idle_gaps(self, stage: int) -> List[Tuple[float, float]]:
        """Idle windows at ``stage`` between consecutive ops."""
        gaps = []
        records = self._by_stage.get(stage, [])
        for prev, nxt in zip(records, records[1:]):
            if nxt.start > prev.end + 1e-12:
                gaps.append((prev.end, nxt.start))
        return gaps

    # ------------------------------------------------------------------ #
    # Validation helpers (used by property tests)
    # ------------------------------------------------------------------ #
    def assert_valid(self) -> None:
        """Check physical consistency of the trace.

        * No two ops overlap on the same stage.
        * Forward of (mb, vstage) precedes forward of (mb, vstage+1).
        * Backward of (mb, vstage+1) precedes backward of (mb, vstage).
        * Every backward follows its matching forward.
        """
        for stage, records in self._by_stage.items():
            for prev, nxt in zip(records, records[1:]):
                if nxt.start < prev.end - 1e-9:
                    raise AssertionError(
                        f"overlap on stage {stage}: {prev.op} and {nxt.op}"
                    )
        ends: Dict[Tuple[str, int, int], float] = {}
        p = self.num_stages
        for record in self.records:
            key = (
                record.op.direction.value,
                record.op.microbatch,
                record.op.virtual_stage(p),
            )
            ends[key] = record.end
        for record in self.records:
            mb = record.op.microbatch
            vstage = record.op.virtual_stage(p)
            if record.op.is_forward:
                if vstage > 0:
                    upstream = ends.get(("F", mb, vstage - 1))
                    if upstream is not None and record.start < upstream - 1e-9:
                        raise AssertionError(
                            f"{record.op} started before upstream forward"
                        )
            else:
                fwd_end = ends.get(("F", mb, vstage))
                if fwd_end is None or record.start < fwd_end - 1e-9:
                    raise AssertionError(
                        f"{record.op} started before its forward finished"
                    )

    # ------------------------------------------------------------------ #
    # Rendering (Figures 4, 10, 12 style)
    # ------------------------------------------------------------------ #
    def render_ascii(self, width: int = 100) -> str:
        """ASCII Gantt chart: one row per stage, letters = microbatches.

        Forward ops print as lowercase letters, backwards as uppercase;
        idle time prints as dots. Time is binned to ``width`` columns.
        """
        if not self.records or self.makespan == 0:
            return "(empty trace)"
        scale = width / self.makespan
        lines = []
        for stage in range(self.num_stages):
            row = ["."] * width
            for record in self._by_stage.get(stage, []):
                lo = int(record.start * scale)
                hi = max(lo + 1, int(record.end * scale))
                letter = chr(ord("a") + record.op.microbatch % 26)
                if not record.op.is_forward:
                    letter = letter.upper()
                for col in range(lo, min(hi, width)):
                    row[col] = letter
            lines.append(f"s{stage:<2} |" + "".join(row) + "|")
        return "\n".join(lines)
