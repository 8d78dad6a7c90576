"""Cycle-accurate pipeline simulator.

Given a schedule (per-stage op order) and per-op durations, computes the
start/end time of every op by longest-path evaluation over the dependency
DAG:

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
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.pipeline.kernel import SimulatorKernel, get_kernel
from repro.pipeline.ops import Direction, PipelineOp
from repro.pipeline.schedules import ScheduleKind, schedule_order
from repro.pipeline.trace import OpRecord, PipelineTrace

DurationFn = Callable[[PipelineOp], float]
CommFn = Callable[[int, int, Direction], float]


@dataclass
class StageWork:
    """Work model binding durations and communication to a pipeline.

    Attributes:
        duration: Op -> seconds of compute.
        comm_delay: (src_stage, dst_stage, direction) -> seconds of
            activation/gradient transfer between adjacent stages.
        fwd_table / bwd_table: Optional ``[stage][microbatch]`` duration
            tables. When present (see :meth:`from_tables`) the simulator
            gathers durations as one numpy operation instead of calling
            ``duration`` per op.
        uniform_comm: Optional uniform inter-stage delay mirroring
            ``comm_delay``; enables the vectorized delay path.
    """

    duration: DurationFn
    comm_delay: CommFn = lambda src, dst, direction: 0.0
    fwd_table: Optional[np.ndarray] = None
    bwd_table: Optional[np.ndarray] = None
    uniform_comm: Optional[float] = None

    @classmethod
    def from_tables(
        cls,
        fwd: Sequence[Sequence[float]],
        bwd: Sequence[Sequence[float]],
        comm: float = 0.0,
    ) -> "StageWork":
        """Build from ``fwd[stage][microbatch]`` / ``bwd[stage][microbatch]``
        tables and a uniform inter-stage delay (chunked ops index the same
        physical-stage tables)."""
        fwd_array = np.asarray(fwd, dtype=float)
        bwd_array = np.asarray(bwd, dtype=float)

        def duration(op: PipelineOp) -> float:
            table = fwd_array if op.is_forward else bwd_array
            return float(table[op.stage][op.microbatch])

        return cls(
            duration=duration,
            comm_delay=lambda s, d, dr: comm,
            fwd_table=fwd_array,
            bwd_table=bwd_array,
            uniform_comm=float(comm),
        )

    @classmethod
    def uniform(
        cls, fwd_time: float, bwd_time: float, comm: float = 0.0
    ) -> "StageWork":
        """Identical durations for every stage and microbatch.

        Tables are filled lazily by the simulator (which knows the
        shape); the callable fallback keeps direct use working.
        """
        work = cls(
            duration=lambda op: fwd_time if op.is_forward else bwd_time,
            comm_delay=lambda s, d, dr: comm,
            uniform_comm=float(comm),
        )
        work._uniform_times = (float(fwd_time), float(bwd_time))
        return work


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
    def _work_vectors(
        self, work: StageWork, kernel: SimulatorKernel
    ) -> Tuple[np.ndarray, Union[float, np.ndarray]]:
        """(durations, delays) for one work model, vectorized if possible."""
        if work.fwd_table is not None and work.bwd_table is not None:
            durations = kernel.durations_from_tables(
                work.fwd_table, work.bwd_table
            )
        else:
            uniform_times = getattr(work, "_uniform_times", None)
            if uniform_times is not None:
                fwd_time, bwd_time = uniform_times
                durations = np.where(
                    kernel.op_is_forward, fwd_time, bwd_time
                )
            else:
                durations = kernel.durations_from_callable(work.duration)
        if work.uniform_comm is not None:
            delays: Union[float, np.ndarray] = work.uniform_comm
        else:
            delays = kernel.delays_from_callable(work.comm_delay)
        return durations, delays

    def run(self, work: StageWork) -> PipelineTrace:
        """Evaluate the schedule and return the full trace."""
        kernel = self.kernel
        durations, delays = self._work_vectors(work, kernel)
        start, end = kernel.evaluate(durations, delays)
        return kernel.trace(start, end)

    def simulate_many(
        self,
        work_tables: Sequence[
            Union[StageWork, Tuple[np.ndarray, np.ndarray]]
        ],
        comm: float = 0.0,
        traces: bool = False,
    ) -> Union[np.ndarray, List[PipelineTrace]]:
        """Batch-evaluate many duration tables on this schedule shape.

        Args:
            work_tables: Each item is a table-backed :class:`StageWork`
                (from :meth:`StageWork.from_tables`) or a plain
                ``(fwd, bwd)`` pair of ``[stage][microbatch]`` tables.
            comm: Uniform inter-stage delay for plain-pair items (a
                ``StageWork`` item's own ``uniform_comm`` wins).
            traces: Return full :class:`PipelineTrace` objects instead of
                the makespan vector.

        Returns:
            ``(B,)`` array of makespans, or a list of traces.
        """
        kernel = self.kernel
        durations = np.empty((len(work_tables), kernel.num_ops))
        delays = np.empty(len(work_tables))
        for i, item in enumerate(work_tables):
            if isinstance(item, StageWork):
                if (
                    item.fwd_table is None
                    or item.bwd_table is None
                    or item.uniform_comm is None
                ):
                    raise ValueError(
                        "simulate_many needs table-backed StageWork "
                        "(use StageWork.from_tables)"
                    )
                durations[i] = kernel.durations_from_tables(
                    item.fwd_table, item.bwd_table
                )
                delays[i] = item.uniform_comm
            else:
                fwd, bwd = item
                durations[i] = kernel.durations_from_tables(fwd, bwd)
                delays[i] = comm
        start, end = kernel.evaluate_batch(durations, delays)
        if traces:
            return [
                kernel.trace(start[i], end[i])
                for i in range(len(work_tables))
            ]
        return end.max(axis=1) if len(work_tables) else np.zeros(0)

    # ------------------------------------------------------------------ #
    # Reference evaluator (test oracle)
    # ------------------------------------------------------------------ #
    def run_reference(self, work: StageWork) -> PipelineTrace:
        """Original per-op worklist evaluation.

        Retained verbatim as the oracle for the property-based
        equivalence suite; the vectorized kernel must reproduce its
        start/end times exactly.
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
                    delay = work.comm_delay(pred.stage, op.stage, Direction.FWD)
                    ready = end[pred] + delay
            else:
                if vstage < num_vstages - 1:
                    pred = bwd_of[(op.microbatch, vstage + 1)]
                    if pred not in end:
                        return None
                    delay = work.comm_delay(pred.stage, op.stage, Direction.BWD)
                    ready = end[pred] + delay
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
                    start[op] = ready
                    end[op] = ready + work.duration(op)
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
        return self.run(StageWork.uniform(fwd_time, bwd_time, comm))
