"""One measured process: set up, one cold call, warm repeats, checks.

Spawned by ``run.py`` (a fresh interpreter per sample, because a
command-line user pays cold process-wide caches on every invocation)
and prints one JSON object on its last stdout line::

    python3 perfbench/child.py --workload fleet-elastic --seed 0 \
        --spawned <time.monotonic() at spawn> --workdir <dir> --mode full

``time.monotonic()`` reads the system-wide monotonic clock, so
``setup_s`` covers interpreter start, importing the library the way
``python -m repro`` does, and building the inputs. Every time is
reported in reference seconds (see ``speed.py``), with the raw wall
seconds alongside. ``--mode setup`` stops once the inputs are built
(more set-up samples for the same run time); ``--mode traced`` runs the
cold call under the layer ledger, reports the per-layer numbers in raw
seconds, and makes no warm repeats. ``--slowdown`` adds a known
slowdown to the measured calls, for ``slowdown.py``.
"""

import time

from speed import SpeedMeter

# Started before any other import, so the probes cover importing the
# library; this file only ever runs as a script.
METER = SpeedMeter().start()
METER_START = time.perf_counter()

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402


#: Warm repeats run until they have taken this many raw seconds (at
#: least one, at most MAX_WARM), so cheap warm calls get more samples.
WARM_SECONDS = 2.0
MAX_WARM = 5


def timed(fn, *args):
    """(result, raw seconds, reference seconds) of one call."""
    start = time.perf_counter()
    result = fn(*args)
    end = time.perf_counter()
    return result, end - start, (end - start) * METER.factor(start, end)


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--spawned", type=float, required=True)
    parser.add_argument("--workdir", type=Path, required=True)
    parser.add_argument(
        "--mode", choices=("full", "setup", "traced"), default="full"
    )
    parser.add_argument("--slowdown", choices=("work", "tracemalloc"))
    args = parser.parse_args()

    # What `python -m repro ...` imports before it does any work.
    import repro.cli  # noqa: F401

    import workloads

    workload = workloads.get(args.workload)
    spec = workload.build(args.seed, args.workdir)
    setup_raw = time.monotonic() - args.spawned
    setup_s = setup_raw * METER.factor(METER_START, time.perf_counter())
    if args.mode == "setup":
        METER.stop()
        print(json.dumps({"setup_s": setup_s, "raw": {"setup_s": setup_raw}}))
        return 0
    ops = workload.operations(spec)
    call = workload.call
    if args.slowdown:
        import slowdown

        call = slowdown.slowed(call, args.slowdown, args.workload)

    book = None
    if args.mode == "traced":
        from ledger import Ledger
        from repro.orchestration.plancache import PLAN_CACHE

        book = Ledger().install()
        before = PLAN_CACHE.stats()
    try:
        cold, wall_raw, wall_s = timed(call, spec)
    finally:
        if book is not None:
            book.uninstall()

    out = {
        "setup_s": setup_s,
        "wall_s": wall_s,
        "raw": {"setup_s": setup_raw, "wall_s": wall_raw, "warm_wall_s": []},
        "operations": ops,
        "digest": workload.digest(cold),
        "headline": workload.headline(cold),
        "problems": workload.invariants(spec, cold),
        "warm_wall_s": [],
        "warm_failed": 0,
    }
    if book is not None:
        after = PLAN_CACHE.stats()
        out["layers"] = book.metrics(
            wall_raw, (after[0] - before[0], after[1] - before[1])
        )
    else:
        # Each warm repeat starts from the same heap: no earlier result
        # alive, no garbage pending.
        expected = workload.outcome(cold)
        del cold
        while len(out["warm_wall_s"]) < MAX_WARM and (
            not out["warm_wall_s"]
            or sum(out["raw"]["warm_wall_s"]) < WARM_SECONDS
        ):
            gc.collect()
            warm, raw, seconds = timed(call, spec)
            out["warm_wall_s"].append(seconds)
            out["raw"]["warm_wall_s"].append(raw)
            if (
                workload.invariants(spec, warm)
                or workload.outcome(warm) != expected
            ):
                out["warm_failed"] += 1
            del warm
    METER.stop()
    # ru_maxrss is in KiB on Linux.
    out["peak_rss_mb"] = (
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    )
    print(json.dumps(out, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
