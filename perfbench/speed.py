"""Machine-speed meter: report host times at one reference speed.

On a small shared virtual machine the same CPU-bound call runs up to
about 1.7x slower for stretches of seconds to tens of seconds, as
neighbours come and go; process CPU time slows by the same factor, so
it does not help. Every benchmark process therefore runs a fixed probe
from a ``SIGALRM`` handler every :data:`PERIOD_S` seconds while it
works, and records how long each probe took. The probes show how fast
the machine was at each moment of a call, and the call's time is
converted to seconds at the speed the probe reaches in
:data:`REFERENCE_PROBE_S`::

    reference_seconds = wall_seconds * mean(REFERENCE_PROBE_S / probe_i)

over the probes taken during the call.

The probe has to run in the measured process: a probe in another
process, on the other core, does not follow the slowdowns. It must
therefore be something the program cannot slow down, or a slowdown of
the program would be divided out of its own time. The probe is small
Python calls over small integers, so it allocates nothing: the heap,
the garbage collector and ``tracemalloc`` do not reach it. Trace and
profile hooks are suspended while it runs. It holds the GIL for its
0.2 ms, so only another thread of the program that wants the GIL could
still slow it; the benchmark's workloads run none. ``slowdown.py``
checks that a known slowdown of the program survives the conversion.

Probes cost about 0.5% of the process's time, on every commit alike.
"""

from __future__ import annotations

import signal
import sys
import time
from typing import List, Tuple

#: Sampling period of the probe, in seconds of wall time.
PERIOD_S = 0.05

#: How long :func:`probe` takes at the reference speed: its fastest
#: steady value on a 2-vCPU Intel Xeon at 2.0 GHz (Python 3.11).
REFERENCE_PROBE_S = 0.00023

# A permutation of 0..127 and fixed keys: every value the probe makes is
# a cached small int, so it allocates nothing.
_TABLE = tuple((i * 37 + 11) % 128 for i in range(128))
_KEYS = tuple((i * 2654435761) % 1021 for i in range(2400))


def _larger(a: int, b: int) -> int:
    return a if a > b else b


def _key(x: int) -> int:
    return _larger(x & 127, 64)


def probe() -> int:
    """Fixed work whose duration tracks the machine's current speed."""
    acc = 0
    table = _TABLE
    for x in _KEYS:
        acc = table[_key(x) ^ acc]
    return acc


class SpeedMeter:
    """Samples :func:`probe` on a timer; converts wall time windows."""

    def __init__(self) -> None:
        #: (perf_counter at probe start, probe seconds)
        self.samples: List[Tuple[float, float]] = []
        self._previous = None

    def start(self) -> "SpeedMeter":
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous or signal.SIG_DFL)

    def _tick(self, signum, frame) -> None:
        hooks = sys.gettrace(), sys.getprofile()
        if hooks != (None, None):
            sys.settrace(None)
            sys.setprofile(None)
        start = time.perf_counter()
        probe()
        self.samples.append((start, time.perf_counter() - start))
        if hooks != (None, None):
            sys.settrace(hooks[0])
            sys.setprofile(hooks[1])

    def factor(self, start: float, end: float) -> float:
        """Reference seconds per wall second over ``[start, end)``.

        A window too short to hold a probe uses the probe nearest to
        it.
        """
        if not self.samples:
            raise RuntimeError("no speed probes were taken")
        inside = [d for t, d in self.samples if start <= t < end]
        if not inside:
            nearest = min(
                self.samples, key=lambda s: min(abs(s[0] - start),
                                                abs(s[0] - end))
            )
            inside = [nearest[1]]
        return sum(REFERENCE_PROBE_S / d for d in inside) / len(inside)
