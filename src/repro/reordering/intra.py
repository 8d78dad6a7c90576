"""Intra-microbatch reordering (Algorithm 1).

Balances per-sample compute across data-parallel groups: minimizing the
maximum per-group load is the NP-hard multiway number partitioning
problem, so the paper uses the classic greedy longest-processing-time
(LPT) heuristic, whose approximation ratio is below 4/3 of optimal.

``INTRAREORDER`` sorts the global batch's samples by size (descending),
assigns each to the currently lightest DP group, and returns the groups
concatenated — DP group ``j`` then reads the ``j``-th contiguous block of
the reordered global batch. Complexity ``O(n log n + m n)`` as stated in
the paper (the arg-min is a linear scan over ``m`` groups).
"""

from __future__ import annotations

import itertools
import numbers
from typing import Callable, List, Sequence, Tuple, TypeVar

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
    """
    return _lpt(samples, num_groups, size)[0]


def _lpt(
    samples: Sequence[T], num_groups: int, size: SizeFn
) -> Tuple[List[List[T]], List[float]]:
    """:func:`lpt_partition`'s groups, and each group's load: a running
    ``+=`` from 0.0 over its samples in append order."""
    _check_groups(num_groups)
    sorted_samples = sorted(samples, key=size, reverse=True)
    groups: List[List[T]] = [[] for _ in range(num_groups)]
    loads = [0.0] * num_groups
    for sample in sorted_samples:
        min_index = min(range(num_groups), key=loads.__getitem__)
        groups[min_index].append(sample)
        loads[min_index] += size(sample)
    return groups, loads


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
    """
    _check_groups(num_groups)
    if len(samples) % num_groups != 0:
        raise ValueError(
            f"{len(samples)} samples do not split evenly into "
            f"{num_groups} DP groups"
        )
    groups, loads = _lpt(samples, num_groups, size)
    # LPT leaves groups with unequal cardinality; DP groups must receive
    # equal sample counts. Rebalance by moving the smallest samples of
    # overfull groups into the lightest underfull group with room
    # (smallest-first keeps loads near-balanced). LPT's running loads
    # are carried forward with ``+=`` rather than re-summing every
    # underfull group per move: the same left fold from zero in append
    # order, so each move costs one scan over the underfull groups.
    per_group = len(samples) // num_groups
    overfull = [g for g in groups if len(g) > per_group]
    underfull = [i for i, g in enumerate(groups) if len(g) < per_group]
    for group in overfull:
        group.sort(key=size, reverse=True)
        while len(group) > per_group:
            moved = group.pop()  # smallest
            target = min(
                (i for i in underfull if len(groups[i]) < per_group),
                key=loads.__getitem__,
            )
            groups[target].append(moved)
            loads[target] += size(moved)
    result: List[T] = []
    for group in groups:
        result.extend(group)
    return result


def partition_makespan(
    groups: Sequence[Sequence[T]], size: SizeFn = _default_size
) -> float:
    """Maximum per-group load — the straggler time the paper minimizes."""
    if not groups:
        raise ValueError("no groups")
    return max(sum(size(s) for s in group) for group in groups)


def reordered_makespan(
    ordered: Sequence[T], num_groups: int, size: SizeFn = _default_size
) -> float:
    """Makespan when DP group ``j`` reads the ``j``-th contiguous block."""
    _check_groups(num_groups)
    if len(ordered) % num_groups != 0:
        raise ValueError("samples do not split evenly")
    per_group = len(ordered) // num_groups
    return max(
        sum(size(s) for s in ordered[j * per_group : (j + 1) * per_group])
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
