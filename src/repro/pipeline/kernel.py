"""Vectorized longest-path kernel for pipeline simulation.

The cycle-accurate simulator evaluates start/end times over the schedule
DAG. The dependency *structure* of that DAG is a pure function of the
schedule shape ``(kind, stages, microbatches, vpp)`` — only the duration
and communication tables change between evaluations. Reordering
ablations, the adaptive orchestration search, and experiment campaigns
evaluate the same handful of shapes thousands of times, so this module
compiles each shape once into index arrays:

* ``stage_prev[i]``   — op executed immediately before op ``i`` on its
  stage (schedule order), or -1;
* ``data_pred[i]``    — the data dependency (upstream forward for a
  forward op, downstream backward for a backward op) carrying the
  inter-stage communication delay, or -1;
* ``fwd_pred[i]``     — for a backward op, its matching forward, or -1;
* ``levels``          — a topological levelization: every op's
  predecessors live in strictly earlier levels.

Evaluation then sweeps the levels with numpy gathers::

    ready[data]  = end[data_pred] + delay
    ready        = max(ready, end[fwd_pred], end[stage_prev])
    start[level] = ready;  end[level] = ready + duration[level]

which is arithmetically identical (same IEEE operations per op) to the
reference per-op worklist, so traces are bit-identical. Every entry
point runs the same sweep: a batch of duration vectors rides as a
trailing axis, so one sweep prices a whole portfolio of candidate
orders with the same numpy operations per level as one vector, and
:func:`union_makespans` prices evaluations of *different* shapes in one
sweep over the level-aligned union of their DAGs.

Kernels are cached per shape via :func:`get_kernel`; repeated
evaluations only pay for new duration tables.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from typing import List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.obs import instrument as obs
from repro.pipeline.ops import Direction, PipelineOp
from repro.pipeline.schedules import ScheduleKind, schedule_order
from repro.pipeline.trace import OpRecord, PipelineTrace

#: Distinct shapes kept compiled. Inter-microbatch reordering evaluates
#: one shape per placed-prefix length only while some rank's interval is
#: still open (every length at vpp > 1; at vpp = 1 usually just the
#: first and the p-th), so a campaign touches at most O(l) shapes per
#: pipeline; 1024 covers every realistic sweep without growing
#: unboundedly.
KERNEL_CACHE_SIZE = 1024

ArrayLike = Union[Sequence[Sequence[float]], np.ndarray]


@dataclass(frozen=True)
class _CompiledLevels:
    """Level-major fused evaluation structure.

    Ops are permuted into level order once; each level is then a
    contiguous slice, and readiness is one ``(k, 3)`` gather plus a
    row-max. Column 0 is the data edge, 1 the forward pred, 2 the stage
    pred; missing predecessors point at the reserved always-zero slot
    ``num_ops``. ``pred3`` holds *positions in level order*. Only the
    data edge carries the inter-stage delay, so one mask marks the ops
    whose column 0 is a live edge.
    """

    order: np.ndarray        # (n,) op ids in level-sorted order
    bounds: Tuple[int, ...]  # L+1 prefix offsets into ``order``
    pred3: np.ndarray        # (n, 3) predecessor positions, dummy = n
    data_edge: np.ndarray    # (n,) 1.0 exactly at live data edges


def _level_sweep(
    durations_l: np.ndarray,
    pred3: np.ndarray,
    edge: np.ndarray,
    bounds: Sequence[int],
) -> Tuple[np.ndarray, np.ndarray]:
    """The level loop every evaluation runs: level-order start and end
    times of ops whose predecessors all sit in earlier levels.

    ``durations_l`` is ``(n,)`` for one evaluation or ``(n, B)`` for a
    batch, in level order; ``pred3`` holds each op's ``(n, 3)``
    predecessor positions and ``edge`` its data-edge delay, the only
    edge that carries one (a batch adds a trailing axis). Level ``v``
    is the contiguous slice ``bounds[v]:bounds[v+1]``, so both shapes
    run the same operations per level: gather, add the data-edge delays
    to column 0, row-max into the starts, add the durations into the
    ends. One reserved trailing end slot stays 0.0, so missing
    predecessors gather a zero readiness; the returned ``end`` keeps it
    as its last row.
    """
    start_l = np.empty_like(durations_l)
    end_l = np.zeros((len(durations_l) + 1,) + durations_l.shape[1:])
    reduce_max = np.maximum.reduce
    add = np.add
    for lo, hi in zip(bounds, bounds[1:]):
        gathered = end_l.take(pred3[lo:hi], axis=0)
        gathered[:, 0] += edge[lo:hi]
        ready = reduce_max(gathered, 1, out=start_l[lo:hi])
        add(ready, durations_l[lo:hi], out=end_l[lo:hi])
    return start_l, end_l


def _schedule_arrays(
    kind: ScheduleKind, p: int, l: int, vpp: int
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """(op_stage, op_mb, op_chunk, op_is_fwd) in stage-major schedule
    order, without materializing :class:`PipelineOp` objects.

    GPipe and 1F1B orders are generated directly with numpy (they are
    simple warm-up/steady/drain patterns); the interleaved schedule
    falls back to flattening :func:`schedule_order`. Array order matches
    the generators exactly — the equivalence and golden-trace suites
    pin this.
    """
    if kind is not ScheduleKind.INTERLEAVED or vpp == 1:
        if p < 1 or l < 1:
            # Delegate the error to the reference generator.
            schedule_order(kind, p, l, vpp)
        per_stage = 2 * l
        op_stage = np.repeat(np.arange(p, dtype=np.int64), per_stage)
        op_mb = np.empty(p * per_stage, dtype=np.int64)
        op_is_fwd = np.empty(p * per_stage, dtype=bool)
        if kind is ScheduleKind.GPIPE:
            mb = np.concatenate(
                [np.arange(l), np.arange(l)[::-1]]
            )
            flags = np.zeros(per_stage, dtype=bool)
            flags[:l] = True
            for s in range(p):
                op_mb[s * per_stage:(s + 1) * per_stage] = mb
                op_is_fwd[s * per_stage:(s + 1) * per_stage] = flags
        else:  # 1F1B (also INTERLEAVED with vpp == 1)
            for s in range(p):
                w = min(p - s - 1, l)
                steady = l - w
                mb = np.empty(per_stage, dtype=np.int64)
                flags = np.zeros(per_stage, dtype=bool)
                mb[:w] = np.arange(w)
                flags[:w] = True
                mb[w:w + 2 * steady:2] = np.arange(w, l)
                flags[w:w + 2 * steady:2] = True
                mb[w + 1:w + 2 * steady:2] = np.arange(steady)
                mb[w + 2 * steady:] = np.arange(steady, l)
                op_mb[s * per_stage:(s + 1) * per_stage] = mb
                op_is_fwd[s * per_stage:(s + 1) * per_stage] = flags
        op_chunk = np.zeros(p * per_stage, dtype=np.int64)
        return op_stage, op_mb, op_chunk, op_is_fwd

    order = schedule_order(kind, p, l, vpp)
    ops: List[PipelineOp] = []
    for stage in range(p):
        ops.extend(order.get(stage, []))
    n = len(ops)
    return (
        np.fromiter((op.stage for op in ops), np.int64, n),
        np.fromiter((op.microbatch for op in ops), np.int64, n),
        np.fromiter((op.chunk for op in ops), np.int64, n),
        np.fromiter((op.is_forward for op in ops), bool, n),
    )


@dataclass(frozen=True)
class SimulatorKernel:
    """Compiled dependency structure of one schedule shape.

    Build via :func:`get_kernel`; instances are immutable and shared.
    """

    kind: ScheduleKind
    num_stages: int
    num_microbatches: int
    vpp: int
    op_stage: np.ndarray
    op_microbatch: np.ndarray
    op_chunk: np.ndarray
    op_is_forward: np.ndarray
    stage_prev: np.ndarray
    data_pred: np.ndarray
    fwd_pred: np.ndarray
    stage_first: np.ndarray   # index of each stage's first op in ``ops``
    stage_count: np.ndarray   # ops per stage
    levels: Optional[_CompiledLevels] = field(repr=False)

    @property
    def ops(self) -> Tuple[PipelineOp, ...]:
        """Op objects in kernel order (built lazily — only traces and
        the deadlock message need them)."""
        cached = self.__dict__.get("_ops")
        if cached is None:
            direction = [Direction.BWD, Direction.FWD]
            cached = tuple(
                PipelineOp(
                    stage=int(self.op_stage[i]),
                    microbatch=int(self.op_microbatch[i]),
                    direction=direction[int(self.op_is_forward[i])],
                    chunk=int(self.op_chunk[i]),
                )
                for i in range(len(self.op_stage))
            )
            object.__setattr__(self, "_ops", cached)
        return cached

    # ------------------------------------------------------------------ #
    # Construction
    # ------------------------------------------------------------------ #
    @classmethod
    def build(
        cls,
        kind: ScheduleKind,
        num_stages: int,
        num_microbatches: int,
        vpp: int = 1,
    ) -> "SimulatorKernel":
        with obs.span(
            "kernel.compile",
            kind=kind.value,
            stages=num_stages,
            microbatches=num_microbatches,
            vpp=vpp,
        ):
            obs.count("kernel.compiles")
            return cls._build(kind, num_stages, num_microbatches, vpp)

    @classmethod
    def _build(
        cls,
        kind: ScheduleKind,
        num_stages: int,
        num_microbatches: int,
        vpp: int = 1,
    ) -> "SimulatorKernel":
        p = num_stages
        num_vstages = p * vpp
        l = num_microbatches

        op_stage, op_mb, op_chunk, op_is_fwd = _schedule_arrays(
            kind, p, l, vpp
        )
        n = len(op_stage)
        # Stage-major order: each stage's ops are one contiguous block.
        stage_count = np.bincount(op_stage, minlength=p).astype(np.int64)
        stage_first = np.concatenate(
            [[0], np.cumsum(stage_count)[:-1]]
        ).astype(np.int64)
        vstage = op_chunk * p + op_stage

        # Ops are contiguous per stage, so the stage predecessor is the
        # previous index except at each stage's first op.
        stage_prev = np.arange(-1, n - 1, dtype=np.int64)
        stage_prev[stage_first[stage_count > 0]] = -1

        # Data/forward predecessors via a flat (direction, vstage, mb)
        # index map — no Python per-op loop.
        flat = np.full(2 * num_vstages * l, -1, dtype=np.int64)
        key = (op_is_fwd * num_vstages + vstage) * l + op_mb
        flat[key] = np.arange(n)

        data_pred = np.full(n, -1, dtype=np.int64)
        fwd_up = op_is_fwd & (vstage > 0)
        data_pred[fwd_up] = flat[
            (num_vstages + vstage[fwd_up] - 1) * l + op_mb[fwd_up]
        ]
        bwd_down = ~op_is_fwd & (vstage < num_vstages - 1)
        data_pred[bwd_down] = flat[
            (vstage[bwd_down] + 1) * l + op_mb[bwd_down]
        ]
        fwd_pred = np.full(n, -1, dtype=np.int64)
        bwd = ~op_is_fwd
        fwd_pred[bwd] = flat[(num_vstages + vstage[bwd]) * l + op_mb[bwd]]

        kernel = cls(
            kind=kind,
            num_stages=p,
            num_microbatches=num_microbatches,
            vpp=vpp,
            op_stage=op_stage,
            op_microbatch=op_mb,
            op_chunk=op_chunk,
            op_is_forward=op_is_fwd,
            stage_prev=stage_prev,
            data_pred=data_pred,
            fwd_pred=fwd_pred,
            stage_first=stage_first,
            stage_count=stage_count,
            levels=None,
        )
        levels = None
        if kind == ScheduleKind.ONE_F_ONE_B and vpp == 1:
            # 1F1B admits a closed-form valid leveling: forwards run at
            # logical step ``s + 2m``, backwards at ``2p - s - 1 + 2m``.
            # Any grouping where every predecessor lands in a strictly
            # earlier group evaluates bit-identically (op end times are
            # a pure function of the predecessor arrays), so the
            # worklist topological sort is unnecessary on the hot shape.
            level = np.where(
                op_is_fwd,
                op_stage + 2 * op_mb,
                2 * p - op_stage - 1 + 2 * op_mb,
            ).astype(np.int64)
            if cls._valid_leveling(level, stage_prev, data_pred, fwd_pred):
                levels = cls._group_levels(
                    level, stage_prev, data_pred, fwd_pred
                )
        if levels is None:
            levels = cls._levelize(
                n, stage_prev, data_pred, fwd_pred,
                lambda i: str(kernel.ops[i]),
            )
        object.__setattr__(kernel, "levels", levels)
        return kernel

    @staticmethod
    def _valid_leveling(
        level: np.ndarray,
        stage_prev: np.ndarray,
        data_pred: np.ndarray,
        fwd_pred: np.ndarray,
    ) -> bool:
        """Every predecessor sits in a strictly earlier level."""
        for pred in (stage_prev, data_pred, fwd_pred):
            has = pred >= 0
            if np.any(level[pred[has]] >= level[has]):
                return False
        return True

    @staticmethod
    def _levelize(
        n: int,
        stage_prev: np.ndarray,
        data_pred: np.ndarray,
        fwd_pred: np.ndarray,
        describe_op,
    ) -> _CompiledLevels:
        """Levelization: ops grouped so every predecessor is in a
        strictly earlier group. A cycle means the schedule/dependency
        combination is infeasible — same failure the reference worklist
        reports as a deadlock.

        A topological order is recovered with the reference evaluator's
        cursor worklist (stage cursors advance while data dependencies
        are met), then ``level[i] = 1 + max(level[preds])`` resolves in
        one pass over that order."""
        sp = stage_prev.tolist()
        dp = data_pred.tolist()
        fp = fwd_pred.tolist()
        # Per-stage [start, end) cursor windows over the op array.
        windows: List[List[int]] = []
        for i in range(n):
            if sp[i] == -1:
                if windows:
                    windows[-1][1] = i
                windows.append([i, n])
        scheduled = [False] * n
        topo: List[int] = []
        remaining = n
        while remaining:
            progressed = False
            for window in windows:
                i, end = window
                while i < end:
                    d, f = dp[i], fp[i]
                    if d >= 0 and not scheduled[d]:
                        break
                    if f >= 0 and not scheduled[f]:
                        break
                    scheduled[i] = True
                    topo.append(i)
                    i += 1
                    remaining -= 1
                    progressed = True
                window[0] = i
            if not progressed:
                stuck = [
                    describe_op(window[0])
                    for window in windows
                    if window[0] < window[1]
                ]
                raise RuntimeError(
                    f"pipeline schedule deadlocked; waiting ops: {stuck[:8]}"
                )

        level_of = [0] * n
        for i in topo:
            lv = -1
            for pred in (sp[i], dp[i], fp[i]):
                if pred >= 0 and level_of[pred] > lv:
                    lv = level_of[pred]
            level_of[i] = lv + 1
        level = np.asarray(level_of, dtype=np.int64)
        return SimulatorKernel._group_levels(
            level, stage_prev, data_pred, fwd_pred
        )

    @staticmethod
    def _group_levels(
        level: np.ndarray,
        stage_prev: np.ndarray,
        data_pred: np.ndarray,
        fwd_pred: np.ndarray,
    ) -> _CompiledLevels:
        """Compile ops into the level-major fused structure.

        One stable argsort permutes the ops into level order; the fused
        predecessor tables are built with a handful of whole-array
        passes, and each level is addressed by a contiguous
        ``bounds[v]:bounds[v+1]`` slice at evaluation time.
        """
        n = len(level)
        if n == 0:
            return _CompiledLevels(
                order=np.zeros(0, dtype=np.int64),
                bounds=(0,),
                pred3=np.zeros((0, 3), dtype=np.int64),
                data_edge=np.zeros(0),
            )
        order = np.argsort(level, kind="stable")
        lvl_sorted = level[order]
        num_levels = int(lvl_sorted[-1]) + 1
        bounds = tuple(
            np.searchsorted(lvl_sorted, np.arange(num_levels + 1)).tolist()
        )

        # Positions in level order (dummy op n maps to dummy slot n).
        position = np.empty(n + 1, dtype=np.int64)
        position[order] = np.arange(n, dtype=np.int64)
        position[n] = n

        pred = np.stack(
            [data_pred[order], fwd_pred[order], stage_prev[order]], axis=1
        )
        pred3 = position[np.where(pred >= 0, pred, n)]
        return _CompiledLevels(
            order=order,
            bounds=bounds,
            pred3=pred3,
            data_edge=(pred[:, 0] >= 0).astype(float),
        )

    # ------------------------------------------------------------------ #
    # Duration / delay vectors
    # ------------------------------------------------------------------ #
    @property
    def num_ops(self) -> int:
        return len(self.op_stage)

    def durations_from_tables(
        self, fwd: ArrayLike, bwd: ArrayLike
    ) -> np.ndarray:
        """Gather the per-op duration vector from ``[stage][microbatch]``
        duration tables (chunked ops index their physical stage's
        table)."""
        fwd = np.asarray(fwd, dtype=float)
        bwd = np.asarray(bwd, dtype=float)
        rows, cols = self.op_stage, self.op_microbatch
        return np.where(
            self.op_is_forward, fwd[rows, cols], bwd[rows, cols]
        )

    def durations_from_rank_tables(
        self, fwd: np.ndarray, bwd: np.ndarray, orders: ArrayLike
    ) -> np.ndarray:
        """``(R, n)`` duration rows of R DP ranks in one gather.

        ``fwd``/``bwd`` stack each rank's ``[microbatch][stage]`` tables
        as ``(R, l, p)``; op ``i`` of rank ``r`` reads row
        ``orders[r][op_microbatch[i]]`` at its stage, so the orders may
        be prefixes of the ranks' full orders.
        """
        rows = np.arange(len(fwd))[:, None]
        mb = np.asarray(orders, dtype=np.int64)[:, self.op_microbatch]
        stage = self.op_stage
        return np.where(
            self.op_is_forward, fwd[rows, mb, stage], bwd[rows, mb, stage]
        )

    def durations_from_stage_times(
        self,
        stage_fwd: Sequence[float],
        stage_bwd: Sequence[float],
    ) -> np.ndarray:
        """Durations for uniform-per-stage workloads (no microbatch
        heterogeneity) — the orchestration refinement's case."""
        stage_fwd = np.asarray(stage_fwd, dtype=float)
        stage_bwd = np.asarray(stage_bwd, dtype=float)
        return np.where(
            self.op_is_forward,
            stage_fwd[self.op_stage],
            stage_bwd[self.op_stage],
        )

    # ------------------------------------------------------------------ #
    # Evaluation
    # ------------------------------------------------------------------ #
    def evaluate(
        self, durations: np.ndarray, delay: float = 0.0
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Start/end times for one duration vector and a uniform
        inter-stage delay."""
        with obs.kernel_span("kernel.evaluate", 1):
            return self._sweep(
                durations, self._edges(delay, batch=False), with_start=True
            )

    def evaluate_batch(
        self,
        durations: np.ndarray,
        delays: Union[float, np.ndarray] = 0.0,
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Start/end times for a ``(B, n)`` duration matrix.

        ``delays`` is a scalar shared by the whole batch or a ``(B,)``
        vector of per-item uniform delays. Returns ``(B, n)`` views of
        the sweep's op-major results (not C-contiguous).
        """
        with obs.kernel_span("kernel.evaluate_batch", len(durations)):
            start, end = self._sweep_rows(durations, delays, with_start=True)
            return start.T, end.T

    def makespan_from_durations(
        self, durations: np.ndarray, delay: float = 0.0
    ) -> float:
        """Makespan of one duration vector, skipping start-time
        bookkeeping and the op-order scatter (the max is permutation-
        invariant). Bit-identical to ``makespan(evaluate(...)[1])``.
        """
        with obs.kernel_span("kernel.makespan", 1):
            end = self._sweep(
                durations, self._edges(delay, batch=False), with_start=False
            )
            return float(end.max()) if len(end) else 0.0

    def makespans_from_durations(
        self,
        durations: np.ndarray,
        delays: Union[float, np.ndarray] = 0.0,
    ) -> np.ndarray:
        """Batched :meth:`makespan_from_durations` over ``(B, n)``
        durations (bit-identical to ``makespans(evaluate_batch(...)[1])``).
        """
        with obs.kernel_span("kernel.makespan_batch", len(durations)):
            end = self._sweep_rows(durations, delays, with_start=False)
            return end.max(axis=0)

    def _sweep_rows(
        self,
        durations: np.ndarray,
        delays: Union[float, np.ndarray],
        with_start: bool,
    ):
        """:meth:`_sweep` over a checked ``(B, n)`` duration matrix."""
        durations = np.asarray(durations, dtype=float)
        if durations.ndim != 2 or durations.shape[1] != self.num_ops:
            raise ValueError(
                f"expected (B, {self.num_ops}) durations, "
                f"got {durations.shape}"
            )
        return self._sweep(
            durations.T, self._edges(delays, batch=True), with_start
        )

    def _edges(
        self, delays: Union[float, np.ndarray], batch: bool
    ) -> np.ndarray:
        """Data-edge delays in level order, ``(n,)``: the uniform delay
        on every op with a live data edge, zero elsewhere. Under
        ``batch`` they are ``(n, B)`` and ``delays`` may be one uniform
        delay per row (a ``(B,)`` vector).
        """
        data_edge = self.levels.data_edge
        if batch:
            return data_edge[:, None] * np.asarray(delays, dtype=float)
        return data_edge * float(delays)

    def _sweep(
        self, durations: np.ndarray, edge: np.ndarray, with_start: bool
    ):
        """The level sweep (:func:`_level_sweep`) over op-major
        ``durations``, ``(n,)`` for one evaluation or ``(n, B)`` for a
        batch. Returns op-order ``(start, end)``, or with ``with_start``
        false only the level-order end times (a makespan is order-free).
        """
        n = self.num_ops
        levels = self.levels
        start_l, end_l = _level_sweep(
            np.asarray(durations, dtype=float)[levels.order],
            levels.pred3,
            edge,
            levels.bounds,
        )
        if not with_start:
            return end_l[:n]
        start = np.empty_like(start_l)
        end = np.empty_like(start_l)
        start[levels.order] = start_l
        end[levels.order] = end_l[:n]
        return start, end

    # ------------------------------------------------------------------ #
    # Derived quantities (trace-free fast paths)
    # ------------------------------------------------------------------ #
    def makespan(self, end: np.ndarray) -> float:
        """Pipeline makespan from an end-time vector."""
        return float(end.max()) if len(end) else 0.0

    def makespans(self, end: np.ndarray) -> np.ndarray:
        """Per-row makespans of a batched ``(B, n)`` end-time matrix.

        One reduction prices a whole portfolio — the scenario engine's
        thousand-iteration sweeps and the reordering search both read
        only this scalar per evaluated row.
        """
        end = np.asarray(end, dtype=float)
        if end.ndim != 2 or end.shape[1] != self.num_ops:
            raise ValueError(
                f"expected (B, {self.num_ops}) end times, got {end.shape}"
            )
        return end.max(axis=1)

    def first_stage_gap(
        self, start: np.ndarray, end: np.ndarray
    ) -> Tuple[float, Optional[int]]:
        """The first idle window at stage 0: its length and the stage-0
        index (in schedule order) of the op that ends it, or
        ``(0.0, None)`` when stage 0 never idles.

        Matches ``PipelineTrace.stage_idle_gaps(0)``: stage-0 ops sorted
        by (start, end), gaps wider than 1e-12 count.
        """
        lo = int(self.stage_first[0])
        hi = lo + int(self.stage_count[0])
        idx = np.arange(lo, hi)
        s, e = start[idx], end[idx]
        sorted_rows = np.lexsort((e, s))
        s, e = s[sorted_rows], e[sorted_rows]
        gaps = np.flatnonzero(s[1:] > e[:-1] + 1e-12)
        if not len(gaps):
            return 0.0, None
        g = gaps[0]
        return float(s[g + 1] - e[g]), int(sorted_rows[g + 1])

    def bubble_fraction(self, start: np.ndarray, end: np.ndarray) -> float:
        """Mean idle fraction across stages, without building a trace:
        the one-row case of :meth:`bubble_fractions`."""
        return self.bubble_fractions(start[None], end[None])[0]

    def bubble_fractions(
        self, start: np.ndarray, end: np.ndarray
    ) -> List[float]:
        """Per-row mean idle fraction of a batched ``(B, n)`` sweep.

        Mirrors :meth:`PipelineTrace.bubble_fraction` bit for bit: per
        stage, one ``lexsort`` orders every row's ops by ``(start,
        end)`` and ``np.add.accumulate`` sums their durations, a strict
        left fold, so its last column is the trace's sequential sum. The
        stage sums are added in stage order and averaged against each
        row's makespan. Rows reduce independently, so a batch assembled
        from many callers (the fleet engine's fused stepping) prices
        every row bit-identically to evaluating it alone.
        """
        rows = np.arange(len(start))[:, None]
        total_busy = np.zeros(len(start))
        for stage in range(self.num_stages):
            lo = int(self.stage_first[stage])
            hi = lo + int(self.stage_count[stage])
            s, e = start[:, lo:hi], end[:, lo:hi]
            order = np.lexsort((e, s), axis=1)
            durations = e[rows, order] - s[rows, order]
            total_busy += np.add.accumulate(durations, axis=1)[:, -1]
        makespans = end.max(axis=1)
        timed = makespans != 0
        fractions = np.zeros(len(start))
        fractions[timed] = 1.0 - total_busy[timed] / (
            makespans[timed] * self.num_stages
        )
        return fractions.tolist()

    def trace(self, start: np.ndarray, end: np.ndarray) -> PipelineTrace:
        """Materialize the full :class:`PipelineTrace`.

        Records appear in the same (stage-major schedule) order as the
        reference evaluator's, so traces compare bit-identical.
        """
        records = [
            OpRecord(op=op, start=float(start[i]), end=float(end[i]))
            for i, op in enumerate(self.ops)
        ]
        return PipelineTrace(
            num_stages=self.num_stages,
            num_microbatches=self.num_microbatches,
            vpp=self.vpp,
            records=records,
        )


@lru_cache(maxsize=KERNEL_CACHE_SIZE)
def get_kernel(
    kind: ScheduleKind,
    num_stages: int,
    num_microbatches: int,
    vpp: int = 1,
) -> SimulatorKernel:
    """The compiled kernel for one schedule shape (process-wide cache)."""
    return SimulatorKernel.build(kind, num_stages, num_microbatches, vpp)


def union_makespans(
    parts: Sequence[Tuple[SimulatorKernel, np.ndarray]], delay: float = 0.0
) -> np.ndarray:
    """Makespans of several ``(kernel, durations)`` evaluations, in one
    level sweep over the level-aligned union of their DAGs.

    Union level ``v`` holds the level-``v`` ops of every part, part
    after part, so each op's predecessors still sit in earlier union
    levels and it gathers exactly the ends its own kernel's sweep
    gathers. A part's makespan is the max of its own ops' ends, which
    does not depend on order, so every result is bit-identical to that
    part's ``kernel.makespans_from_durations(durations[None], delay)``
    while the shapes share one level loop. ``delay`` is the uniform
    inter-stage delay of every part.

    The union is built per call in whole-array passes: level widths,
    prefix-sum offsets, then remapped predecessor positions.
    """
    with obs.kernel_span("kernel.makespan_batch", len(parts)):
        if not parts:
            return np.zeros(0)
        levels = []
        durations = []
        for kernel, row in parts:
            row = np.asarray(row, dtype=float)
            if row.shape != (kernel.num_ops,):
                raise ValueError(
                    f"expected ({kernel.num_ops},) durations, got {row.shape}"
                )
            levels.append(kernel.levels)
            durations.append(row)
        sizes = np.array([len(row) for row in durations])
        part_start = np.cumsum(sizes) - sizes
        total = int(sizes.sum())
        # Level widths: width[i, v] ops of part i open at row opens[i, v]
        # of its level order; levels past a part's last are empty.
        depth = np.array([len(lv.bounds) - 1 for lv in levels])
        live = np.arange(depth.max()) < depth[:, None]
        flat = np.concatenate([lv.bounds for lv in levels])
        opening = np.ones(len(flat), dtype=bool)
        opening[np.cumsum(depth + 1) - 1] = False
        width = np.zeros(live.shape, dtype=np.int64)
        width[live] = np.diff(flat)[opening[:-1]]
        opens = np.zeros(live.shape, dtype=np.int64)
        opens[live] = flat[opening]
        bounds = np.zeros(live.shape[1] + 1, dtype=np.int64)
        np.cumsum(width.sum(axis=0), out=bounds[1:])
        # Union order lays the (level, part) blocks out level-major, so
        # prefix sums of the block widths give where each block lands;
        # ``rows[u]`` is the part-major level-order row at union slot u.
        block_width = width.T.ravel()
        block_row = (part_start[:, None] + opens).T.ravel()
        rows = np.arange(total) + np.repeat(
            block_row - (np.cumsum(block_width) - block_width), block_width
        )
        position = np.empty(total, dtype=np.int64)
        position[rows] = np.arange(total)
        # Part i's predecessor slots run 0..sizes[i], its dummy last;
        # every dummy maps to the union's dummy slot ``total``.
        slot = np.insert(position, part_start + sizes, total)
        offset = np.repeat(part_start + np.arange(len(parts)), sizes)
        pred3 = slot[
            (np.concatenate([lv.pred3 for lv in levels]) + offset[:, None])
            .take(rows, axis=0)
        ]
        edge = np.concatenate([lv.data_edge for lv in levels]).take(
            rows
        ) * float(delay)
        op = np.concatenate([lv.order for lv in levels]) + np.repeat(
            part_start, sizes
        )
        durations_l = np.concatenate(durations)[op.take(rows)]
        _, end_l = _level_sweep(durations_l, pred3, edge, bounds.tolist())
        return np.maximum.reduceat(end_l.take(position), part_start)


def clear_kernel_cache() -> None:
    get_kernel.cache_clear()
