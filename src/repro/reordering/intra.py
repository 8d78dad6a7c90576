"""Intra-microbatch reordering (Algorithm 1).

Balances per-sample compute across data-parallel groups: minimizing the
maximum per-group load is the NP-hard multiway number partitioning
problem, so the paper uses the classic greedy longest-processing-time
(LPT) heuristic, whose approximation ratio is below 4/3 of optimal.

``INTRAREORDER`` sorts the global batch's samples by size (descending),
assigns each to the currently lightest DP group, and returns the groups
concatenated — DP group ``j`` then reads the ``j``-th contiguous block of
the reordered global batch.

The paper states ``O(n log n + m n)``, its arg-min being a linear scan
over the ``m`` groups. Here each sample's size is taken once and the
lightest group comes off a heap of ``(load, group)`` pairs, so the
assignment costs ``O(n log m)``; the equal-count fixup takes its targets
from a heap of the underfull groups the same way. Tuples compare the
load first and the group index second, so among equally light groups the
heap yields the lowest index, which is the group the linear scan
returns. Each load is still a running ``+=`` from 0.0 in append order,
so the groups and loads are identical.

The iteration simulator reorders sample indices, reading each size from
its batch's int64 ``image_tokens`` column:
``intra_reorder(range(n), dp, size=sizes.__getitem__)``.
"""

from __future__ import annotations

import heapq
import itertools
import numbers
from typing import Callable, List, Sequence, Tuple, TypeVar

import numpy as np

from repro.numerics import fold_sum

T = TypeVar("T")

SizeFn = Callable[[T], float]


def _default_size(item) -> float:
    """Samples expose ``.size`` (image tokens); numbers are themselves.

    Plain numbers are checked first: numpy scalars also expose a
    ``.size`` attribute (always 1), which must not shadow their value.
    """
    if isinstance(item, numbers.Number):
        return float(item)
    if hasattr(item, "size"):
        return float(item.size)
    return float(item)


def lpt_partition(
    samples: Sequence[T], num_groups: int, size: SizeFn = _default_size
) -> List[List[T]]:
    """Greedy LPT partition of ``samples`` into ``num_groups`` groups.

    Lines 2-8 of Algorithm 1: sort descending by size, then repeatedly
    assign the next sample to the group with the smallest current load.

    Raises:
        ValueError: ``num_groups < 1``, or a sample's size is not finite.
    """
    groups, _, _ = _lpt(samples, num_groups, size)
    return [[samples[i] for i in group] for group in groups]


def _lpt(
    samples: Sequence[T], num_groups: int, size: SizeFn
) -> Tuple[List[List[int]], List[float], List[float]]:
    """:func:`lpt_partition` over sample indices: each group's indices
    in append order, each group's load (a running ``+=`` from 0.0 over
    its samples in append order), and every sample's size.

    The descending sort is one stable argsort of the negated sizes:
    equal sizes keep their input order, as ``sorted(..., reverse=True)``
    keeps it.
    """
    _check_groups(num_groups)
    sizes = [size(sample) for sample in samples]
    values = np.array(sizes, dtype=float)
    bad = np.flatnonzero(~np.isfinite(values))
    if len(bad):
        i = int(bad[0])
        raise ValueError(f"sample {i} has a non-finite size {sizes[i]!r}")
    groups: List[List[int]] = [[] for _ in range(num_groups)]
    loads = [0.0] * num_groups
    heap = [(0.0, g) for g in range(num_groups)]
    for i in np.argsort(-values, kind="stable").tolist():
        g = heap[0][1]
        groups[g].append(i)
        loads[g] += sizes[i]
        heapq.heapreplace(heap, (loads[g], g))
    return groups, loads, sizes


def _check_groups(num_groups: int) -> None:
    if num_groups < 1:
        raise ValueError("num_groups must be positive")


def intra_reorder(
    samples: Sequence[T], num_groups: int, size: SizeFn = _default_size
) -> List[T]:
    """Algorithm 1: reorder a global batch for balanced DP groups.

    Returns the reordered flat sample list (lines 9-11: groups
    concatenated). The result is a permutation of the input — gradient
    accumulation is commutative, so convergence semantics are preserved.

    Raises:
        ValueError: ``num_groups < 1``, the samples do not split evenly
            into ``num_groups`` groups, or a sample's size is not finite.
    """
    _check_groups(num_groups)
    if len(samples) % num_groups != 0:
        raise ValueError(
            f"{len(samples)} samples do not split evenly into "
            f"{num_groups} DP groups"
        )
    groups, loads, sizes = _lpt(samples, num_groups, size)
    # LPT leaves groups with unequal cardinality; DP groups must receive
    # equal sample counts. Rebalance by moving the smallest samples of
    # overfull groups into the lightest underfull group with room
    # (smallest-first keeps loads near-balanced). The underfull groups
    # sit on a heap of ``(load, group)`` pairs, so among equally light
    # groups the lowest index takes the sample, as a scan would pick
    # it; a group leaves the heap once full.
    per_group = len(samples) // num_groups
    underfull = [
        (loads[g], g) for g, group in enumerate(groups)
        if len(group) < per_group
    ]
    heapq.heapify(underfull)
    for group in groups:
        if len(group) <= per_group:
            continue
        group.sort(key=sizes.__getitem__, reverse=True)
        while len(group) > per_group:
            moved = group.pop()  # smallest
            target = underfull[0][1]
            groups[target].append(moved)
            loads[target] += sizes[moved]
            if len(groups[target]) < per_group:
                heapq.heapreplace(underfull, (loads[target], target))
            else:
                heapq.heappop(underfull)
    return [samples[i] for group in groups for i in group]


def partition_makespan(
    groups: Sequence[Sequence[T]], size: SizeFn = _default_size
) -> float:
    """Maximum per-group load — the straggler time the paper minimizes."""
    if not groups:
        raise ValueError("no groups")
    return max(fold_sum(size(s) for s in group) for group in groups)


def reordered_makespan(
    ordered: Sequence[T], num_groups: int, size: SizeFn = _default_size
) -> float:
    """Makespan when DP group ``j`` reads the ``j``-th contiguous block."""
    _check_groups(num_groups)
    if len(ordered) % num_groups != 0:
        raise ValueError("samples do not split evenly")
    per_group = len(ordered) // num_groups
    return max(
        fold_sum(
            size(s) for s in ordered[j * per_group : (j + 1) * per_group]
        )
        for j in range(num_groups)
    )


def brute_force_optimal_makespan(
    sizes: Sequence[float], num_groups: int
) -> float:
    """Exact optimal makespan by exhaustive assignment (test oracle).

    Exponential — only usable for tiny instances in property tests that
    check LPT's 4/3 approximation bound.
    """
    if len(sizes) > 12:
        raise ValueError("brute force limited to <= 12 samples")
    best = float("inf")
    for assignment in itertools.product(range(num_groups), repeat=len(sizes)):
        loads = [0.0] * num_groups
        for sample_size, group in zip(sizes, assignment):
            loads[group] += sample_size
        best = min(best, max(loads))
    return best
