"""Check that a known slowdown of the program survives the speed correction.

Every reported time is wall time converted by an in-process probe
(``speed.py``), so a slowdown that also slowed the probe would be
divided out of the program's own time. This script runs samples of a
workload in interleaved triples (unchanged, with extra work, with
``tracemalloc`` on) and compares, per triple, how much slower the cold
call got in raw wall seconds and in reference seconds::

    python3 perfbench/slowdown.py [--record perfbench/noise.json]

``work`` adds :data:`EXTRA_WORK_STEPS` steps of dict-and-int Python
after each call, about 15% of the call. Its expected ratio is ``1 + extra / base``, where
``extra`` is the extra work timed on its own under the meter and
``base`` the median unchanged cold call, both in reference seconds.
``tracemalloc`` makes every allocation of the program slower, the kind
of process-wide slowdown an in-process probe could absorb; there the
median raw ratio of neighbouring samples is the truth. ``kept`` is the
share of the expected slowdown the reference seconds still show, and
should be near 1.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys
import time
import tracemalloc
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

#: Workloads checked (the fastest and the most allocation-heavy) and
#: the size of their ``work`` slowdown: 0.12 s per million steps at the
#: reference speed.
EXTRA_WORK_STEPS = {"fleet-elastic": 1_000_000, "paper-sweep": 3_000_000}

KINDS = ("work", "tracemalloc")

#: Interleaved triples per workload.
CYCLES = 8


def extra_work(steps: int) -> int:
    counts = {}
    for i in range(steps):
        key = (i * 7) % 1009
        counts[key] = counts.get(key, 0) + i
    return len(counts)


def slowed(call, kind: str, workload: str):
    """``call`` with the known slowdown ``kind`` added (in ``child.py``)."""
    if kind == "tracemalloc":
        tracemalloc.start()  # on for every later call of the process
        return call

    def call_then_work(spec):
        result = call(spec)
        extra_work(EXTRA_WORK_STEPS[workload])
        return result

    return call_then_work


def extra_reference_s(steps: int) -> float:
    """Median reference seconds of :func:`extra_work` on its own."""
    from speed import SpeedMeter

    meter = SpeedMeter().start()
    times = []
    try:
        for _ in range(9):
            start = time.perf_counter()
            extra_work(steps)
            end = time.perf_counter()
            times.append((end - start) * meter.factor(start, end))
    finally:
        meter.stop()
    return statistics.median(times)


def check(workload: str, workdir: Path) -> dict:
    import run
    import workloads

    extra_s = extra_reference_s(EXTRA_WORK_STEPS[workload])
    print(f"{workload} extra work alone: {extra_s:.4f} reference s",
          flush=True)
    rows = {kind: {"raw": [], "reference": []} for kind in KINDS}
    bases = []
    for cycle in range(CYCLES):
        # Rotate the order, so no kind always follows the same one.
        order = [None, *KINDS][cycle % 3:] + [None, *KINDS][:cycle % 3]
        walls = {
            kind: run.spawn(workload, workloads.DEFAULT_SEED, workdir,
                            "full", slowdown=kind)
            for kind in order
        }
        base = walls[None]
        bases.append(base["wall_s"])
        for kind in KINDS:
            rows[kind]["raw"].append(
                walls[kind]["raw"]["wall_s"] / base["raw"]["wall_s"]
            )
            rows[kind]["reference"].append(
                walls[kind]["wall_s"] / base["wall_s"]
            )
        print(f"{workload} cycle {cycle}: " + " ".join(
            f"{kind} raw x{rows[kind]['raw'][-1]:.3f} "
            f"reference x{rows[kind]['reference'][-1]:.3f}"
            for kind in KINDS
        ), flush=True)
    base_s = statistics.median(bases)
    out = {"base_wall_s": base_s, "extra_work_s": extra_s}
    for kind, ratios in rows.items():
        raw = statistics.median(ratios["raw"])
        reference = statistics.median(ratios["reference"])
        expected = 1.0 + extra_s / base_s if kind == "work" else raw
        out[kind] = {
            "expected_ratio": expected,
            "raw_ratio": raw,
            "reference_ratio": reference,
            "kept": (reference - 1.0) / (expected - 1.0),
            "raw_ratios": ratios["raw"],
            "reference_ratios": ratios["reference"],
        }
        print(f"  {kind:12s} expected x{expected:.3f} raw x{raw:.3f} "
              f"reference x{reference:.3f} kept {out[kind]['kept']:.2f}")
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--record", type=Path,
                        help="add the result to this noise.json")
    args = parser.parse_args()
    import run

    workdir = HERE.parent / ".perfbench-work" / f"slowdown-{os.getpid()}"
    try:
        table = {
            workload: check(workload, workdir)
            for workload in EXTRA_WORK_STEPS
        }
    finally:
        run.remove_workdir(workdir)
    if args.record:
        noise = json.loads(args.record.read_text())
        noise["slowdown_check"] = {"cycles": CYCLES, "workloads": table}
        args.record.write_text(json.dumps(noise, indent=1, sort_keys=True)
                               + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
