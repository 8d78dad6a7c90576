"""Pipeline-parallel schedule simulation.

Implements GPipe, 1F1B, and interleaved 1F1B (virtual pipeline
parallelism) schedules and a cycle-accurate simulator that computes, for
arbitrary per-microbatch per-stage durations, when every forward/backward
op starts and ends. This is the substrate on which the paper's pipeline-
bubble analysis (Figures 4, 7, 10, 12) and the inter-microbatch
reordering algorithm (Algorithm 2) are built and evaluated.
"""

from repro.pipeline.kernel import (
    SimulatorKernel,
    clear_kernel_cache,
    get_kernel,
)
from repro.pipeline.ops import Direction, PipelineOp
from repro.pipeline.schedules import (
    ScheduleKind,
    gpipe_order,
    one_f_one_b_order,
    interleaved_order,
    schedule_order,
)
from repro.pipeline.simulator import PipelineSimulator, StageWork
from repro.pipeline.trace import PipelineTrace, OpRecord

__all__ = [
    "Direction",
    "PipelineOp",
    "ScheduleKind",
    "gpipe_order",
    "one_f_one_b_order",
    "interleaved_order",
    "schedule_order",
    "PipelineSimulator",
    "StageWork",
    "PipelineTrace",
    "OpRecord",
    "SimulatorKernel",
    "get_kernel",
    "clear_kernel_cache",
]
