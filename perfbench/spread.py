"""Run-to-run noise of the end-to-end metrics: the benchmark's own floor.

For each workload, runs the benchmark in three sets of ``--runs`` runs,
one run at a time:

- ``seeds``: one run per seed 1, 2, ... -- how a check across seeds
  sees the benchmark;
- ``same-a`` and ``same-b``: every run at the default seed, where the
  reference digest is checked -- pure run-to-run noise, and whether two
  sets of runs of the same code agree.

Per set and metric it reports the median of the runs and the distance
between the first and third quartiles (``statistics.quantiles(values,
n=4)``) as a share of that median; between ``same-a`` and ``same-b`` it
reports the shift of the median. One traced run per workload gives
``trace_overhead_frac``::

    python3 perfbench/spread.py --workloads paper-sweep --runs 5
    python3 perfbench/spread.py --record perfbench/noise.json

A metric whose spread exceeds its bound in ``BENCHMARK.json`` cannot
resolve a change of that size. Each run also records its raw wall-clock
medians and the speed factor that converted them (``speed.py``).
``--record`` writes the table with the machine's core count, keeping
the ``slowdown.py`` result already in the file.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import sys
import time
from pathlib import Path
from typing import Dict, List

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
import run  # noqa: E402
import workloads  # noqa: E402


def one_run(workload: str, seed: int, seconds: int, trace: int) -> Dict:
    workdir = run.ROOT / ".perfbench-work" / f"spread-{os.getpid()}"
    try:
        samples, failed = run.measure(workload, seed, seconds, trace, workdir)
    finally:
        run.remove_workdir(workdir)
    if failed:
        raise SystemExit(f"{workload} seed {seed}: {failed} operations failed")
    metrics = run.summarize(samples, trace, run.declared(trace))
    if trace:
        return metrics
    raw = run.end_to_end([dict(s, **s["raw"]) for s in samples])
    return {
        "metrics": metrics,
        "raw": {name: raw[name] for name in ("setup_s", "wall_s",
                                             "warm_wall_s")},
        "speed_factor": run.speed_factor(samples),
    }


def spread(values: List[float]) -> Dict:
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {"median": median, "iqr_frac": (q3 - q1) / median}


def run_set(workload: str, seeds: List[int], seconds: int,
            label: str) -> Dict:
    runs = []
    for seed in seeds:
        started = time.monotonic()
        runs.append(one_run(workload, seed, seconds, trace=0))
        print(f"{workload} {label} seed {seed}: "
              f"{time.monotonic() - started:.0f}s "
              + " ".join(f"{k}={v:.4g}" for k, v in runs[-1]["metrics"].items())
              + f" speed_factor={runs[-1]['speed_factor']:.3f}", flush=True)
    names = list(runs[0]["metrics"])
    return {
        "seeds": seeds,
        "runs": runs,
        "spread": {
            name: spread([r["metrics"][name] for r in runs]) for name in names
        },
        "raw_spread": {
            name: spread([r["raw"][name] for r in runs])
            for name in runs[0]["raw"]
        },
    }


def main() -> int:
    bench = json.loads(run.BENCHMARK.read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--workloads", nargs="+",
        default=[w["name"] for w in bench["workloads"]],
    )
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--record", type=Path)
    args = parser.parse_args()
    seconds = bench["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    same = [workloads.DEFAULT_SEED] * args.runs

    table = {}
    for workload in args.workloads:
        row = {
            "seeds": run_set(workload, list(range(1, args.runs + 1)),
                             seconds, "seeds"),
            "same-a": run_set(workload, same, seconds, "same-a"),
            "same-b": run_set(workload, same, seconds, "same-b"),
        }
        row["same_shift"] = {
            name: row["same-b"]["spread"][name]["median"]
            / row["same-a"]["spread"][name]["median"] - 1.0
            for name in bounds
        }
        row["trace_overhead_frac"] = one_run(
            workload, workloads.DEFAULT_SEED, seconds, trace=1
        )["trace_overhead_frac"]
        table[workload] = row
        print(f"{workload}: trace_overhead_frac "
              f"{row['trace_overhead_frac']:.3f}")
        for name, bound in bounds.items():
            spreads = {
                label: row[label]["spread"][name]["iqr_frac"]
                for label in ("seeds", "same-a", "same-b")
            }
            worst = max(spreads.values())
            flag = "" if worst < bound / 3 else "  <-- above a third of the bound"
            if abs(row["same_shift"][name]) > bound:
                flag += "  <-- sets disagree"
            print(f"  {name:12s} median {row['seeds']['spread'][name]['median']:.4g} "
                  + " ".join(f"IQR {k} {v:.3f}" for k, v in spreads.items())
                  + f" shift a->b {row['same_shift'][name]:+.3f} "
                  f"(bound {bound}){flag}")
    if args.record:
        old = json.loads(args.record.read_text()) if args.record.exists() else {}
        record = {
            "machine": {
                "nproc": os.cpu_count(),
                "processor": platform.processor() or platform.machine(),
                "python": platform.python_version(),
            },
            "runs_per_set": args.runs,
            "run_seconds": seconds,
            "workloads": table,
        }
        if "slowdown_check" in old:
            record["slowdown_check"] = old["slowdown_check"]
        args.record.write_text(json.dumps(record, indent=1, sort_keys=True)
                               + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
