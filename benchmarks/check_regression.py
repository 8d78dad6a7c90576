"""Benchmark regression guard for the tracked figure benchmarks.

Compares a fresh pytest-benchmark JSON against the committed baseline
(``benchmarks/baseline.json``) and fails if any tracked benchmark's mean
time regressed more than the threshold (20% by default).

Raw wall-clock comparison across machines is meaningless, so both the
baseline and the check normalize by a CPU *calibration score* — the time
of a fixed pure-Python workload measured on the spot. A benchmark
regresses only if its calibration-normalized mean exceeds the baseline's
by more than the threshold.

Usage::

    # CI / local check (exit 1 on regression):
    python benchmarks/check_regression.py bench-current.json

    # Re-bless the baseline after an intentional change. Pass several
    # reports from repeated runs: the baseline takes each benchmark's
    # worst (max) mean, so ordinary run-to-run noise stays inside the
    # threshold and only genuine regressions fire:
    python benchmarks/check_regression.py run1.json run2.json run3.json --update

Tunables: ``--baseline PATH``, ``--threshold 1.2`` (ratio), and the
``BENCH_REGRESSION_THRESHOLD`` environment variable.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from pathlib import Path

DEFAULT_BASELINE = Path(__file__).resolve().parent / "baseline.json"
DEFAULT_THRESHOLD = 1.2

#: Benchmarks guarded against regression (substring match on the
#: pytest-benchmark name): the tracked figure benchmarks of the
#: vectorized-kernel work, the scenario engine's thousand-iteration
#: dynamics hot path, the 8-tenant, batched 100-tenant, and
#: 1,000-tenant x 10k-iteration fleet-scheduling workloads, the
#: orchestration search (the convex ablation plus every Table-3 scale
#: of the batched analytic engine), and the flight-recorder overhead
#: (the same scenario workload with tracing + metrics enabled — the
#: disabled-hook cost is implicitly guarded by the two untraced
#: scenario/fleet entries above).
TRACKED = (
    "test_figure16_reordering_ablation",
    "test_figure5_distributions",
    "test_convex_matches_enumeration",
    "test_scenario_1000_iterations",
    "test_fleet_8jobs_1000_iterations",
    "test_fleet_100jobs_1000_iterations",
    "test_fleet_1000jobs_10k_iterations",
    "test_obs_overhead",
    "test_table3_overhead[1296-1920]",
    "test_table3_overhead[648-960]",
    "test_table3_overhead[320-480]",
    "test_table3_overhead[112-240]",
)


def k_expression() -> str:
    """The ``pytest -k`` expression selecting every tracked benchmark.

    Parametrized names carry ``[...]`` suffixes that ``-k`` cannot
    parse, so the expression is built from the deduplicated base names.
    """
    bases = []
    for name in TRACKED:
        base = name.split("[", 1)[0]
        if base not in bases:
            bases.append(base)
    return " or ".join(bases)


def calibration_score(repeats: int = 5) -> float:
    """Seconds for a fixed mixed workload (min over repeats).

    The tracked benchmarks split their time between Python-level work
    (schedule construction, scalar sampling) and small-array numpy
    (kernel level sweeps, SLSQP), so the calibration blends both — a
    runner whose interpreter and numpy speeds diverge still gets a
    representative scale factor.
    """
    import numpy as np

    rng = np.random.default_rng(0)
    matrix = rng.uniform(size=(64, 512))
    indices = rng.integers(0, 512, size=20_000)
    best = float("inf")
    for _ in range(repeats):
        started = time.perf_counter()
        total = 0
        for i in range(400_000):
            total += i * i
        acc = 0.0
        for _ in range(200):
            gathered = matrix[:, indices[:256]]
            acc += float(np.maximum(gathered, 0.5).sum())
        elapsed = time.perf_counter() - started
        best = min(best, elapsed)
        assert total > 0 and acc > 0
    return best


def load_means(report_path: Path) -> dict:
    report = json.loads(report_path.read_text())
    means = {}
    for bench in report.get("benchmarks", []):
        for tracked in TRACKED:
            if tracked in bench["name"]:
                means[tracked] = bench["stats"]["mean"]
    return means


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument(
        "reports", type=Path, nargs="*", metavar="report",
        help="pytest-benchmark JSON(s); checking uses exactly one, "
             "--update merges several into an envelope baseline",
    )
    parser.add_argument(
        "--print-k", action="store_true",
        help="print the pytest -k expression selecting the tracked "
             "benchmarks (single source of truth for CI) and exit",
    )
    parser.add_argument("--baseline", type=Path, default=DEFAULT_BASELINE)
    parser.add_argument(
        "--threshold",
        type=float,
        default=float(os.environ.get("BENCH_REGRESSION_THRESHOLD",
                                     DEFAULT_THRESHOLD)),
        help="maximum allowed normalized-mean ratio (default 1.2 = +20%%)",
    )
    parser.add_argument("--update", action="store_true",
                        help="write the baseline instead of checking")
    args = parser.parse_args(argv)

    if args.print_k:
        print(k_expression())
        return 0
    if not args.reports:
        parser.error("a report is required (or use --print-k)")
    if not args.update and len(args.reports) != 1:
        parser.error("checking takes exactly one report "
                     "(multiple reports are for --update)")
    means = {}
    for report in args.reports:
        report_means = load_means(report)
        missing = sorted(set(TRACKED) - set(report_means))
        if missing:
            print(f"error: report {report} lacks tracked benchmarks: "
                  f"{missing}", file=sys.stderr)
            return 2
        for name, mean in report_means.items():
            means[name] = max(mean, means.get(name, 0.0))
    calibration = calibration_score()

    if args.update:
        args.baseline.write_text(json.dumps({
            "calibration_seconds": calibration,
            "means_seconds": means,
        }, indent=1) + "\n")
        print(f"baseline written to {args.baseline} from "
              f"{len(args.reports)} report(s) "
              f"(calibration {calibration * 1e3:.2f} ms)")
        return 0

    baseline = json.loads(args.baseline.read_text())
    base_calibration = baseline["calibration_seconds"]
    scale = calibration / base_calibration
    print(f"calibration: baseline {base_calibration * 1e3:.2f} ms, "
          f"here {calibration * 1e3:.2f} ms (machine scale {scale:.2f}x)")

    # A tracked benchmark absent from the committed baseline means the
    # guard was widened (or a test renamed) without re-blessing — fail
    # loudly instead of silently dropping it from the check.
    stale = sorted(set(TRACKED) - set(baseline.get("means_seconds", {})))
    if stale:
        print(f"error: baseline {args.baseline} lacks tracked benchmarks: "
              f"{stale}; re-bless it with --update", file=sys.stderr)
        return 2

    failed = False
    for name in TRACKED:
        base_mean = baseline["means_seconds"][name]
        allowed = base_mean * scale * args.threshold
        current = means[name]
        verdict = "ok" if current <= allowed else "REGRESSED"
        failed |= current > allowed
        print(f"  {name}: {current * 1e3:.1f} ms "
              f"(allowed {allowed * 1e3:.1f} ms) {verdict}")
    if failed:
        print(f"benchmark regression beyond {args.threshold:.2f}x — "
              "if intentional, re-bless with --update", file=sys.stderr)
        return 1
    print("benchmarks within budget")
    return 0


if __name__ == "__main__":
    sys.exit(main())
