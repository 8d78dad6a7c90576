"""Chunked communication/computation overlap simulation (Figure 20).

Two schedules for a TP layer that must allgather activations and run the
dependent GEMM:

* **strawman** — allgather on the communication stream, *then* the GEMM.
  With NCCL the communication kernel also occupies SMs, slowing any
  concurrent GEMM (which is why the strawman cannot simply be pipelined).
* **StepCCL** — split into ``n`` chunks; chunk allgathers run
  back-to-back on the DMA engine (zero SM usage) while each chunk's GEMM
  runs on the compute stream as soon as its data lands. Only the first
  chunk's allgather is exposed, plus a final layout remap.

The simulation returns per-chunk timelines so tests can assert stream
consistency (no overlapping ops per stream, GEMM_i never before AG_i).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Tuple


@dataclass(frozen=True)
class OverlapConfig:
    """Costs of one TP layer's communication + computation.

    Attributes:
        comm_time: Full allgather time (all chunks together).
        compute_time: Full GEMM time.
        num_chunks: Decomposition granularity (Figure 20's footnote: more
            chunks hide more communication but shrink per-chunk GEMMs).
        chunk_overhead: Extra per-chunk launch cost on either stream.
        remap_time: Layout remap after the last chunk (Figure 21).
        remap_overlappable: Whether the remap hides behind the weight-
            gradient GEMM (the backward-pass optimization of A.1).
        nccl_sm_slowdown: Multiplicative GEMM slowdown while an SM-based
            (NCCL) collective runs concurrently; StepCCL's DMA path sets
            this to 1.0.
    """

    comm_time: float
    compute_time: float
    num_chunks: int = 4
    chunk_overhead: float = 10e-6
    remap_time: float = 0.0
    remap_overlappable: bool = False
    nccl_sm_slowdown: float = 1.25

    def __post_init__(self) -> None:
        if self.comm_time < 0 or self.compute_time < 0:
            raise ValueError("times must be non-negative")
        if self.num_chunks < 1:
            raise ValueError("num_chunks must be >= 1")


@dataclass
class OverlapTimeline:
    """Executed schedule of one layer.

    ``comm_ops`` / ``compute_ops`` hold (start, end) per chunk.
    """

    comm_ops: List[Tuple[float, float]] = field(default_factory=list)
    compute_ops: List[Tuple[float, float]] = field(default_factory=list)
    remap: Tuple[float, float] = (0.0, 0.0)

    @property
    def total_time(self) -> float:
        ends = [end for _, end in self.comm_ops + self.compute_ops]
        ends.append(self.remap[1])
        return max(ends) if ends else 0.0

    def assert_valid(self) -> None:
        """No intra-stream overlap; GEMM_i starts after AG_i ends."""
        for ops in (self.comm_ops, self.compute_ops):
            for (s1, e1), (s2, e2) in zip(ops, ops[1:]):
                if s2 < e1 - 1e-12:
                    raise AssertionError("stream ops overlap")
        for (ag_start, ag_end), (g_start, g_end) in zip(
            self.comm_ops, self.compute_ops
        ):
            if g_start < ag_end - 1e-12:
                raise AssertionError("GEMM started before its allgather")


def simulate_sequential(config: OverlapConfig) -> OverlapTimeline:
    """Strawman: one allgather, then the full GEMM (Figure 20a)."""
    timeline = OverlapTimeline()
    timeline.comm_ops.append((0.0, config.comm_time))
    gemm_start = config.comm_time
    timeline.compute_ops.append(
        (gemm_start, gemm_start + config.compute_time)
    )
    end = gemm_start + config.compute_time
    timeline.remap = (end, end)  # no remap needed
    return timeline


def simulate_overlapped(config: OverlapConfig) -> OverlapTimeline:
    """StepCCL: chunked allgathers on the DMA engine overlap the GEMMs
    (Figure 20b)."""
    n = config.num_chunks
    chunk_comm = config.comm_time / n + config.chunk_overhead
    chunk_compute = config.compute_time / n + config.chunk_overhead
    timeline = OverlapTimeline()
    comm_clock = 0.0
    compute_clock = 0.0
    for i in range(n):
        comm_start = comm_clock
        comm_end = comm_start + chunk_comm
        timeline.comm_ops.append((comm_start, comm_end))
        comm_clock = comm_end
        compute_start = max(compute_clock, comm_end)
        compute_end = compute_start + chunk_compute
        timeline.compute_ops.append((compute_start, compute_end))
        compute_clock = compute_end
    if config.remap_overlappable:
        # Hidden behind the weight-gradient GEMM (backward pass).
        timeline.remap = (compute_clock, compute_clock)
    else:
        timeline.remap = (compute_clock, compute_clock + config.remap_time)
    return timeline
