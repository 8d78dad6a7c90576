"""Numeric helpers shared by the pricing paths.

:func:`fold_sum` is a left-to-right sum on every interpreter. CPython
3.12's ``sum()`` compensates float additions (Neumaier), while 3.10 and
3.11 add left to right with one rounding per add; the two can differ
in the last bits, and every result here is pinned byte for byte on the
left-to-right sum. Use it wherever a float sum reaches a result;
integer sums are exact either way and keep ``sum()``.

:func:`price_by_count` prices per-sample terms that depend only on a
small integer (a sample's image count) once per distinct value.
"""

from __future__ import annotations

import functools
import operator
from typing import Callable, Iterable, Tuple

import numpy as np


def fold_sum(values: Iterable):
    """``((0 + v0) + v1) + ...``: ``sum(values)`` as CPython 3.10 and
    3.11 compute it."""
    return functools.reduce(operator.add, values, 0)


def price_by_count(
    counts: np.ndarray, price: Callable[[int], Tuple[float, float]]
) -> np.ndarray:
    """``price(c)`` of every element ``c`` of an int64 array, as a
    ``(2, len(counts))`` float64 array; ``price`` runs once per distinct
    count."""
    distinct = set(counts.tolist())
    table = np.zeros((max(distinct, default=0) + 1, 2))
    for count in distinct:
        table[count] = price(count)
    return table[counts].T
