"""Inter-microbatch reordering (Algorithm 2).

Data heterogeneity makes encoder/generator stage times vary per
microbatch; a straggler microbatch opens pipeline bubbles (Figure 7). In
the 1F1B schedule, the first pipeline stage exposes *intervals* — idle
windows between consecutive backward passes — that are normally filled by
forward passes (Figure 12). Algorithm 2 reorders the local batch of one
DP rank so that:

1. the smallest microbatch goes first (activates all stages promptly);
2. the ``p-1`` smallest remaining microbatches go last (the final
   ``p-1`` intervals are structurally unfillable — keep them small);
3. every other position is filled by the microbatch whose size (its
   total encoder+generator computation time, section 5.3) most closely
   matches the current interval (``GETINTERVAL``), greedily minimizing
   unfilled area.

``GETINTERVAL`` evaluates the current partial order with the pipeline
recurrence (we reuse the cycle-accurate simulator on the placed prefix —
the same recursion the paper implements as an ``O(p)`` dynamic program)
and reports the first unfilled idle window at stage 0.

A rank's interval is *final* once no longer prefix can move it; it is
then reused instead of re-priced. With ``vpp = 1`` and ``k >= p - 1``
placed microbatches the prefix runs plain 1F1B: stage ``s`` runs
``p - s - 1`` warm-up forwards, then ``k - p + s + 1`` forward/backward
pairs, then ``p - s - 1`` drain backwards. Call everything before a
stage's drain its *body*; on stage 0 that is the first ``2k - p + 1``
ops. Appending a microbatch inserts one forward/backward pair before
each stage's drain and changes nothing earlier. Every predecessor of a
body op is a body op, whose duration and delay do not change either,
and the kernel computes an op's end from exactly those inputs, so every
body op keeps its start and end, bit for bit, in every longer prefix.
So when stage 0's first gap lies between two body ops, every longer
prefix returns the same gap. A gap that ends at a drain op, no gap at
all, ``k < p - 1`` and ``vpp > 1`` (whose prefixes alternate between
interleaved and 1F1B kernels) keep the rank open.

All DP ranks of an iteration share the pipeline shape ``(l, p, vpp)``,
and Algorithm 2 places the same number of microbatches at each step on
every rank. :func:`reorder_ranks` therefore runs the construction for
all ranks in lockstep: one batched kernel sweep per step prices the
placed prefixes of the ranks still open (a step with none open only
selects), and one more prices every rank's portfolio guard. The kernel
reduces the rows of a sweep independently, so each rank gets exactly
the order it would get alone.

Reordering permutes microbatches within one DP rank's local batch only,
preserving convergence semantics (gradient accumulation commutes).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Sequence, Tuple, TypeVar

import numpy as np

from repro.pipeline.kernel import SimulatorKernel, get_kernel
from repro.pipeline.schedules import ScheduleKind

T = TypeVar("T")


@dataclass
class MicrobatchCostModel:
    """Per-microbatch, per-stage durations for one DP rank's local batch.

    Attributes:
        fwd: ``fwd[j]`` — forward seconds of microbatch ``j`` at each of
            the ``p`` stages, shape ``(l, p)``.
        bwd: Same for backward, shape ``(l, p)``.
        comm: Uniform inter-stage activation transfer time.
    """

    fwd: np.ndarray
    bwd: np.ndarray
    comm: float = 0.0

    def __post_init__(self) -> None:
        self.fwd = np.asarray(self.fwd, dtype=float)
        self.bwd = np.asarray(self.bwd, dtype=float)
        if self.fwd.shape != self.bwd.shape or self.fwd.ndim != 2:
            raise ValueError("fwd/bwd must be (l, p) arrays of equal shape")
        if not (np.isfinite(self.fwd).all() and np.isfinite(self.bwd).all()):
            raise ValueError("durations must be finite")
        if (self.fwd < 0).any() or (self.bwd < 0).any():
            raise ValueError("durations must be non-negative")
        if not math.isfinite(self.comm) or self.comm < 0:
            raise ValueError(f"comm must be finite and >= 0, got {self.comm!r}")

    @property
    def num_microbatches(self) -> int:
        return self.fwd.shape[0]

    @property
    def num_stages(self) -> int:
        return self.fwd.shape[1]

    def first_stage_fwd(self, j: int) -> float:
        """Forward time of microbatch ``j`` at the first pipeline stage."""
        return float(self.fwd[j, 0])


class InterReorderer:
    """Algorithm 2 (``INTERREORDER``) with optional VPP adaptation.

    Args:
        costs: Per-microbatch stage durations.
        vpp: Virtual-pipeline size. For ``vpp > 1`` the placed prefix is
            evaluated under the interleaved schedule with per-chunk
            durations (section 5.3's retrofit: compute VPP-many intervals
            and fill them with the chunks of a single microbatch).
    """

    def __init__(self, costs: MicrobatchCostModel, vpp: int = 1):
        if vpp < 1:
            raise ValueError("vpp must be >= 1")
        self.costs = costs
        self.vpp = vpp

    def reorder(self) -> List[int]:
        """Return the reordered microbatch indices (a permutation):
        :func:`reorder_ranks` for this one rank."""
        return reorder_ranks([self.costs], self.vpp)[0]

    def reorder_items(self, items: Sequence[T]) -> List[T]:
        """Reorder arbitrary objects aligned with the cost model rows."""
        if len(items) != self.costs.num_microbatches:
            raise ValueError("items length mismatch with cost model")
        return [items[j] for j in self.reorder()]

    def evaluate(self, order: Sequence[int]) -> float:
        """Pipeline makespan of executing microbatches in ``order``.

        Raises:
            ValueError: ``order`` is not a permutation of ``range(l)``.
        """
        costs = self.costs
        order = list(order)
        l = costs.num_microbatches
        if sorted(order) != list(range(l)):
            raise ValueError(
                f"order must be a permutation of range({l}), got {order}"
            )
        kernel, _, end = _sweep(
            costs.fwd[None], costs.bwd[None], np.array([costs.comm]),
            [order], self.vpp,
        )
        return kernel.makespan(end[0])


def reorder_ranks(
    costs: Sequence[MicrobatchCostModel], vpp: int = 1
) -> List[List[int]]:
    """Algorithm 2 for several DP ranks' local batches in lockstep.

    Returns one permutation per cost model, each equal to what that
    rank's construction and portfolio guard produce alone. The guard
    evaluates the constructed order against the identity and both
    sorted orders with the pipeline recurrence, and the best wins, so
    reordering never regresses the orders it replaces.

    Raises:
        ValueError: ``vpp < 1``, or the cost models differ in shape.
    """
    if vpp < 1:
        raise ValueError("vpp must be >= 1")
    if not costs:
        return []
    shape = costs[0].fwd.shape
    if any(c.fwd.shape != shape for c in costs):
        raise ValueError(
            "lockstep reordering needs cost models of one (l, p) shape, "
            f"got {sorted({c.fwd.shape for c in costs})}"
        )
    l = shape[0]
    fwd = np.stack([c.fwd for c in costs])
    bwd = np.stack([c.bwd for c in costs])
    comm = np.array([c.comm for c in costs], dtype=float)
    sizes = _microbatch_sizes(fwd, bwd)

    portfolios = []
    for order, size in zip(_construct(fwd, bwd, comm, sizes, vpp), sizes):
        key = size.__getitem__
        portfolios.append([
            order,
            list(range(l)),
            sorted(range(l), key=key),
            sorted(range(l), key=key, reverse=True),
        ])
    # One batched sweep prices the four candidate orders of every rank.
    width = len(portfolios[0])
    _, _, end = _sweep(
        np.repeat(fwd, width, axis=0),
        np.repeat(bwd, width, axis=0),
        np.repeat(comm, width),
        [order for portfolio in portfolios for order in portfolio],
        vpp,
    )
    makespans = end.max(axis=1).reshape(len(costs), width)
    return [
        portfolio[int(np.argmin(row))]
        for portfolio, row in zip(portfolios, makespans)
    ]


def _microbatch_sizes(fwd: np.ndarray, bwd: np.ndarray) -> List[List[float]]:
    """The paper's microbatch *size* of every microbatch of every rank,
    from ``(R, l, p)`` stacked tables: its total heterogeneous
    computation time. Section 5.3: "The size refers to the computation
    time of the microbatch in modality encoder and generator" — the
    constant LLM stages cancel out of all comparisons, so summing every
    stage is equivalent. One sum over the stage axis prices every row;
    numpy reduces each contiguous ``(r, j)`` row exactly as it reduces
    ``fwd[r, j]`` alone, so ``sizes[r][j]`` is
    ``float(fwd[r, j].sum() + bwd[r, j].sum())`` bit for bit.
    """
    return (fwd.sum(axis=2) + bwd.sum(axis=2)).tolist()


def _construct(
    fwd: np.ndarray,
    bwd: np.ndarray,
    comm: np.ndarray,
    sizes: List[List[float]],
    vpp: int,
) -> List[List[int]]:
    """Algorithm 2's interval-filling construction, for every rank."""
    num_ranks, l, p = fwd.shape
    if l <= 2 or p < 2:
        return [list(range(l)) for _ in range(num_ranks)]

    # placed[r, :k] is rank r's order so far; taken marks what it holds
    # and what its rear reserves.
    placed = np.empty((num_ranks, l), dtype=np.int64)
    taken = np.zeros((num_ranks, l), dtype=bool)
    remaining: List[List[int]] = []
    rears: List[List[int]] = []
    for r, size in enumerate(sizes):
        key = size.__getitem__
        rest = list(range(l))
        # Line 3: schedule the smallest microbatch first.
        first = min(rest, key=key)
        rest.remove(first)
        # Line 4: reserve the p-1 smallest (SELECTMIN) for the rear.
        rear = sorted(rest, key=key)[: min(p - 1, len(rest))]
        for j in rear:
            rest.remove(j)
        placed[r, 0] = first
        taken[r, first] = True
        taken[r, rear] = True
        remaining.append(rest)
        rears.append(rear)

    # Lines 5-11: fill intervals. Every rank places the same count at
    # each step, so one sweep prices the placed prefixes of the ranks
    # whose interval is still open; the others reuse their final one.
    ranks = np.arange(num_ranks)
    size_table = np.array(sizes)
    intervals = np.zeros(num_ranks)
    open_ranks = list(range(num_ranks))
    count = min(p - 1, len(remaining[0]))
    k = 1
    while k < l - len(rears[0]):
        if open_ranks:
            # Stage 0's body (see the module docstring).
            body = 2 * k - p + 1 if vpp == 1 and k >= p - 1 else 0
            kernel, start, end = _sweep(
                fwd[open_ranks], bwd[open_ranks], comm[open_ranks],
                placed[open_ranks, :k], vpp,
            )
            still_open = []
            for row, r in enumerate(open_ranks):
                intervals[r], ends_at = kernel.first_stage_gap(
                    start[row], end[row]
                )
                if ends_at is None or ends_at >= body:
                    still_open.append(r)
            open_ranks = still_open
        if count == 1:
            # SELECTCLOSEST for one microbatch, every rank at once: the
            # first minimum is the lowest index, the one ``min`` takes
            # over the ascending candidates.
            distance = np.abs(size_table - intervals[:, None])
            distance[taken] = np.inf
            chosen = distance.argmin(axis=1)
            placed[:, k] = chosen
            taken[ranks, chosen] = True
        else:
            for r, size in enumerate(sizes):
                chosen = _select_closest(
                    remaining[r], count, float(intervals[r]), size
                )
                placed[r, k:k + count] = chosen
                taken[r, chosen] = True
        k += count
        count = 1

    for r, rear in enumerate(rears):
        placed[r, k:] = rear  # line 12
    return placed.tolist()


def _select_closest(
    candidates: List[int], k: int, interval: float, size: List[float]
) -> List[int]:
    """``SELECTCLOSEST`` for ``k > 1``: k microbatches whose aggregate
    size best matches ``interval``.

    A greedy descending pass adds items while they fit, then tops up
    with the smallest leftovers (:func:`_construct` picks single
    microbatches by a lockstep nearest-value scan). Sizes are the total
    heterogeneous computation times (see :func:`_microbatch_sizes`),
    which empirically fill intervals better than first-stage-only times
    when both encoder and generator are heterogeneous.
    """
    ordered = sorted(candidates, key=size.__getitem__, reverse=True)
    chosen: List[int] = []
    total = 0.0
    for j in ordered:
        if len(chosen) == k:
            break
        if total + size[j] <= interval or not chosen:
            chosen.append(j)
            total += size[j]
    if len(chosen) < k:
        leftovers = [j for j in reversed(ordered) if j not in chosen]
        chosen.extend(leftovers[: k - len(chosen)])
    return chosen


def _sweep(
    fwd: np.ndarray,
    bwd: np.ndarray,
    comm: np.ndarray,
    orders: Sequence[Sequence[int]],
    vpp: int,
) -> Tuple[SimulatorKernel, np.ndarray, np.ndarray]:
    """Start/end times of ``orders[r]`` over tables ``fwd[r]``/``bwd[r]``
    (``(B, l, p)``) with delay ``comm[r]``, in one batched kernel sweep.

    The orders share one length, which may be a partial prefix. Orders
    whose length fits the interleaving constraint evaluate under the
    interleaved schedule with per-chunk (1/vpp) durations; partial
    prefixes fall back to plain 1F1B.
    """
    p = fwd.shape[2]
    length = len(orders[0])
    if vpp > 1 and length % p == 0:
        kernel = get_kernel(ScheduleKind.INTERLEAVED, p, length, vpp)
        scale = 1.0 / vpp
    else:
        kernel = get_kernel(ScheduleKind.ONE_F_ONE_B, p, length, 1)
        scale = 1.0
    durations = kernel.durations_from_rank_tables(fwd, bwd, orders) * scale
    start, end = kernel.evaluate_batch(durations, comm)
    return kernel, start, end
