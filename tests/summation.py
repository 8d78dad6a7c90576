"""Test references for sums: a left fold, and CPython 3.12's ``sum()``.

CPython 3.12 compensates float additions in ``sum()`` (Neumaier's
improved Kahan-Babuska summation); 3.10 and 3.11 add left to right, and
every result is blessed on that. A test reference that sums floats uses
:func:`left_fold`, so it means the same on every interpreter. Patching
``builtins.sum`` with :func:`sum312` on 3.10/3.11 shows which results
would move on 3.12. It follows ``Python/bltinmodule.c``:

* an exact-int (or bool) prefix adds exactly; the first other item is
  added to it generically;
* from an exact float on, exact floats are added with compensation,
  while ints and bools inside that loop are converted and added without
  it; the compensation is added once, at the end (or before the first
  item that is neither, after which every add is generic).
"""

from __future__ import annotations

import functools
import math
import operator
import sys

_LONG_MIN, _LONG_MAX = -(2**63), 2**63 - 1


def left_fold(values):
    """``((0 + v0) + v1) + ...``, on every interpreter."""
    return functools.reduce(operator.add, values, 0)


def sum312(iterable, /, start=0):
    """``sum(iterable, start)`` as CPython 3.12 computes it."""
    items = iter(iterable)
    result = start
    if type(result) is int and _LONG_MIN <= result <= _LONG_MAX:
        for item in items:
            if type(item) in (int, bool) and (
                _LONG_MIN <= result + item <= _LONG_MAX
            ):
                result += item
                continue
            result = result + item
            break
        else:
            return result
    if type(result) is float:
        total, compensation = result, 0.0
        for item in items:
            if type(item) is float:
                t = total + item
                if abs(total) >= abs(item):
                    compensation += (total - t) + item
                else:
                    compensation += (item - t) + total
                total = t
                continue
            if isinstance(item, int) and _LONG_MIN <= item <= _LONG_MAX:
                total += float(item)
                continue
            if compensation and math.isfinite(compensation):
                total += compensation
            result = total + item
            break
        else:
            if compensation and math.isfinite(compensation):
                total += compensation
            return total
    for item in items:
        result = result + item
    return result


#: True where the running interpreter's own ``sum()`` is compensated.
NATIVE = sys.version_info >= (3, 12)
