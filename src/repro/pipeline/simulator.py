"""Cycle-accurate pipeline simulator.

Given a schedule (per-stage op order), ``[stage][microbatch]`` duration
tables and a uniform inter-stage delay, computes the start/end time of
every op by longest-path evaluation over the dependency DAG:

* **stage order** — a stage executes its ops strictly in schedule order;
* **forward data** — ``F(mb, vstage)`` needs ``F(mb, vstage-1)`` plus the
  inter-stage communication delay;
* **backward data** — ``B(mb, vstage)`` needs ``B(mb, vstage+1)`` plus
  communication, and the matching forward's saved activations.

Durations may vary per microbatch — the essential capability for studying
data heterogeneity (section 2.3), where encoder/generator stage times
depend on the images in each microbatch.

Evaluation runs on the vectorized :mod:`repro.pipeline.kernel`: the
dependency structure is compiled once per ``(kind, stages, microbatches,
vpp)`` shape and cached, so repeated evaluations (reordering ablations,
orchestration search, campaigns) only pay for new duration tables. The
original per-op worklist survives as :meth:`PipelineSimulator.run_reference`
— the oracle the property-based equivalence suite checks the kernel
against, bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.pipeline.kernel import SimulatorKernel, get_kernel
from repro.pipeline.ops import PipelineOp
from repro.pipeline.schedules import ScheduleKind, schedule_order
from repro.pipeline.trace import OpRecord, PipelineTrace


@dataclass
class StageWork:
    """Durations and inter-stage delay of one pipeline run.

    Attributes:
        fwd_table / bwd_table: ``[stage][microbatch]`` forward/backward
            seconds (chunked ops read their physical stage's row).
        comm: Uniform activation/gradient transfer time on every
            inter-stage data edge.
    """

    fwd_table: np.ndarray
    bwd_table: np.ndarray
    comm: float = 0.0

    @classmethod
    def from_tables(
        cls,
        fwd: Sequence[Sequence[float]],
        bwd: Sequence[Sequence[float]],
        comm: float = 0.0,
    ) -> "StageWork":
        """Build from ``fwd[stage][microbatch]`` / ``bwd[stage][microbatch]``
        tables and a uniform inter-stage delay."""
        return cls(
            fwd_table=np.asarray(fwd, dtype=float),
            bwd_table=np.asarray(bwd, dtype=float),
            comm=float(comm),
        )


class PipelineSimulator:
    """Simulates one training iteration's pipeline phase.

    Args:
        num_stages: Physical pipeline depth ``p``.
        num_microbatches: Microbatches per iteration ``l``.
        schedule: Which schedule to run.
        vpp: Virtual-pipeline chunks per stage (interleaved only).
    """

    def __init__(
        self,
        num_stages: int,
        num_microbatches: int,
        schedule: ScheduleKind = ScheduleKind.ONE_F_ONE_B,
        vpp: int = 1,
    ):
        self.num_stages = num_stages
        self.num_microbatches = num_microbatches
        self.schedule = schedule
        self.vpp = vpp if schedule is ScheduleKind.INTERLEAVED else 1

    @property
    def kernel(self) -> SimulatorKernel:
        """The compiled (cached) kernel for this simulator's shape."""
        return get_kernel(
            self.schedule, self.num_stages, self.num_microbatches, self.vpp
        )

    @property
    def order(self) -> Dict[int, List[PipelineOp]]:
        """Per-stage op order (regenerated view; kept for inspection)."""
        return schedule_order(
            self.schedule, self.num_stages, self.num_microbatches, self.vpp
        )

    # ------------------------------------------------------------------ #
    # Simulation
    # ------------------------------------------------------------------ #
    def run(self, work: StageWork) -> PipelineTrace:
        """Evaluate the schedule and return the full trace."""
        kernel = self.kernel
        durations = kernel.durations_from_tables(
            work.fwd_table, work.bwd_table
        )
        start, end = kernel.evaluate(durations, work.comm)
        return kernel.trace(start, end)

    # ------------------------------------------------------------------ #
    # Reference evaluator (test oracle)
    # ------------------------------------------------------------------ #
    def run_reference(self, work: StageWork) -> PipelineTrace:
        """Original per-op worklist evaluation.

        Retained as the oracle for the property-based equivalence suite;
        the vectorized kernel must reproduce its start/end times exactly.
        """
        p = self.num_stages
        num_vstages = p * self.vpp
        order = self.order

        # Index ops and per-stage predecessors.
        stage_prev: Dict[PipelineOp, PipelineOp] = {}
        all_ops: List[PipelineOp] = []
        for stage, ops in order.items():
            for i, op in enumerate(ops):
                all_ops.append(op)
                if i > 0:
                    stage_prev[op] = ops[i - 1]

        fwd_of: Dict[Tuple[int, int], PipelineOp] = {}
        bwd_of: Dict[Tuple[int, int], PipelineOp] = {}
        for op in all_ops:
            vstage = op.virtual_stage(p)
            key = (op.microbatch, vstage)
            (fwd_of if op.is_forward else bwd_of)[key] = op

        end: Dict[PipelineOp, float] = {}
        start: Dict[PipelineOp, float] = {}

        def data_ready(op: PipelineOp) -> Optional[float]:
            """Earliest time ``op``'s inputs are available, or None if a
            predecessor has not finished yet in this sweep."""
            vstage = op.virtual_stage(p)
            ready = 0.0
            if op.is_forward:
                if vstage > 0:
                    pred = fwd_of[(op.microbatch, vstage - 1)]
                    if pred not in end:
                        return None
                    ready = end[pred] + work.comm
            else:
                if vstage < num_vstages - 1:
                    pred = bwd_of[(op.microbatch, vstage + 1)]
                    if pred not in end:
                        return None
                    ready = end[pred] + work.comm
                fwd_pred = fwd_of[(op.microbatch, vstage)]
                if fwd_pred not in end:
                    return None
                ready = max(ready, end[fwd_pred])
            prev = stage_prev.get(op)
            if prev is not None:
                if prev not in end:
                    return None
                ready = max(ready, end[prev])
            return ready

        # Worklist evaluation in per-stage order; each pass schedules the
        # next ready op of every stage. Deadlock (no progress) means the
        # schedule/dependency combination is infeasible.
        cursors = {stage: 0 for stage in order}
        remaining = len(all_ops)
        while remaining:
            progressed = False
            for stage, ops in order.items():
                while cursors[stage] < len(ops):
                    op = ops[cursors[stage]]
                    ready = data_ready(op)
                    if ready is None:
                        break
                    table = work.fwd_table if op.is_forward else work.bwd_table
                    start[op] = ready
                    end[op] = ready + float(table[op.stage][op.microbatch])
                    cursors[stage] += 1
                    remaining -= 1
                    progressed = True
            if not progressed:
                stuck = [
                    str(order[stage][cursors[stage]])
                    for stage in order
                    if cursors[stage] < len(order[stage])
                ]
                raise RuntimeError(
                    f"pipeline schedule deadlocked; waiting ops: {stuck[:8]}"
                )

        records = [
            OpRecord(op=op, start=start[op], end=end[op]) for op in all_ops
        ]
        return PipelineTrace(
            num_stages=p,
            num_microbatches=self.num_microbatches,
            vpp=self.vpp,
            records=records,
        )

    # ------------------------------------------------------------------ #
    # Convenience
    # ------------------------------------------------------------------ #
    def run_uniform(
        self, fwd_time: float, bwd_time: float, comm: float = 0.0
    ) -> PipelineTrace:
        """Run with identical durations for all microbatches/stages."""
        shape = (self.num_stages, self.num_microbatches)
        return self.run(
            StageWork.from_tables(
                np.full(shape, fwd_time), np.full(shape, bwd_time), comm
            )
        )
