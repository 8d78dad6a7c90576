"""Pipeline trace analytics.

Deeper post-hoc analysis of :class:`PipelineTrace` objects than the
built-in bubble accounting: per-microbatch latency, the critical path
through the dependency graph, and the first-stage interval series that
Algorithm 2 reasons about (Figure 12).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.numerics import fold_sum
from repro.pipeline.ops import Direction, PipelineOp
from repro.pipeline.trace import OpRecord, PipelineTrace


@dataclass(frozen=True)
class MicrobatchLatency:
    """End-to-end timing of one microbatch."""

    microbatch: int
    forward_start: float
    forward_end: float
    backward_end: float

    @property
    def forward_latency(self) -> float:
        """First forward start to last forward end (pipeline traversal)."""
        return self.forward_end - self.forward_start

    @property
    def total_latency(self) -> float:
        """First forward start to last backward end (full round trip)."""
        return self.backward_end - self.forward_start


def microbatch_latencies(trace: PipelineTrace) -> List[MicrobatchLatency]:
    """Per-microbatch traversal and round-trip latencies."""
    fwd_start: Dict[int, float] = {}
    fwd_end: Dict[int, float] = {}
    bwd_end: Dict[int, float] = {}
    for record in trace.records:
        mb = record.op.microbatch
        if record.op.is_forward:
            fwd_start[mb] = min(fwd_start.get(mb, record.start), record.start)
            fwd_end[mb] = max(fwd_end.get(mb, record.end), record.end)
        else:
            bwd_end[mb] = max(bwd_end.get(mb, record.end), record.end)
    return [
        MicrobatchLatency(
            microbatch=mb,
            forward_start=fwd_start[mb],
            forward_end=fwd_end[mb],
            backward_end=bwd_end.get(mb, fwd_end[mb]),
        )
        for mb in sorted(fwd_start)
    ]


def critical_path(trace: PipelineTrace) -> List[OpRecord]:
    """One chain of back-to-back ops spanning the makespan.

    Walks backwards from the op that finishes last, at each step moving
    to a predecessor (same-stage prior op, upstream forward, or
    downstream backward) that ends exactly when the current op becomes
    ready. Gaps on the walk indicate idle time on the critical path —
    they terminate the chain, so the returned ops are the *tail* of the
    critical path with no internal idle time.
    """
    if not trace.records:
        return []
    records = {(r.op): r for r in trace.records}
    by_stage: Dict[int, List[OpRecord]] = {}
    for record in sorted(trace.records, key=lambda r: r.start):
        by_stage.setdefault(record.op.stage, []).append(record)

    def predecessors(record: OpRecord) -> List[OpRecord]:
        op = record.op
        preds: List[OpRecord] = []
        stage_ops = by_stage[op.stage]
        index = stage_ops.index(record)
        if index > 0:
            preds.append(stage_ops[index - 1])
        p = trace.num_stages
        vstage = op.virtual_stage(p)
        if op.is_forward and vstage > 0:
            for other, rec in records.items():
                if (
                    other.is_forward
                    and other.microbatch == op.microbatch
                    and other.virtual_stage(p) == vstage - 1
                ):
                    preds.append(rec)
        if not op.is_forward:
            for other, rec in records.items():
                if (
                    not other.is_forward
                    and other.microbatch == op.microbatch
                    and other.virtual_stage(p) == vstage + 1
                ):
                    preds.append(rec)
            fwd = PipelineOp(op.stage, op.microbatch, Direction.FWD, op.chunk)
            if fwd in records:
                preds.append(records[fwd])
        return preds

    current = max(trace.records, key=lambda r: r.end)
    path = [current]
    while True:
        candidates = [
            pred
            for pred in predecessors(current)
            if abs(pred.end - current.start) < 1e-9
        ]
        if not candidates:
            break
        current = max(candidates, key=lambda r: r.duration)
        path.append(current)
    return list(reversed(path))


def first_stage_intervals(trace: PipelineTrace) -> List[Tuple[float, float]]:
    """The Figure 12 interval series: idle windows at stage 0 between
    consecutive backward passes (plus the pre-first-backward window)."""
    records = trace.stage_records(0)
    backwards = [r for r in records if not r.op.is_forward]
    if not backwards:
        return []
    intervals: List[Tuple[float, float]] = []
    boundaries = [None] + backwards
    for prev, nxt in zip(boundaries, boundaries[1:]):
        window_start = prev.end if prev is not None else 0.0
        window_end = nxt.start
        # Subtract forward work performed inside the window.
        busy = 0.0
        for record in records:
            if record.op.is_forward:
                lo = max(record.start, window_start)
                hi = min(record.end, window_end)
                busy += max(0.0, hi - lo)
        idle = max(0.0, (window_end - window_start) - busy)
        intervals.append((window_start, window_start + idle))
    return intervals


def summarize(trace: PipelineTrace) -> Dict[str, float]:
    """One-line trace summary for reports."""
    latencies = microbatch_latencies(trace)
    return {
        "makespan": trace.makespan,
        "bubble_fraction": trace.bubble_fraction(),
        "mean_forward_latency": (
            fold_sum(l.forward_latency for l in latencies) / len(latencies)
            if latencies
            else 0.0
        ),
        "max_round_trip": (
            max(l.total_latency for l in latencies) if latencies else 0.0
        ),
        "first_stage_unfilled": trace.first_stage_unfilled_time(),
    }
