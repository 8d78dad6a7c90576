"""The repository benchmark: end-to-end and per-layer, one command.

Run from the repository root::

    python3 perfbench/run.py --workload fleet-elastic --seed 0 \
        --seconds 40 --trace 0

Each sample is a fresh interpreter (``child.py``) that imports the
library from ``src/``, builds the workload's inputs from ``--seed``,
makes one cold call and warm repeats, and checks the result. Samples
run one after another, never concurrently, until the next one would
overrun ``--seconds``; every metric is the median over the run's
samples.

``--trace 0`` reports the end-to-end metrics (``setup_s``, ``wall_s``,
``warm_wall_s``, ``peak_rss_mb``); two set-up-only samples follow each
full one, so ``setup_s`` is a median over three times as many set-ups.
``--trace 1`` alternates untraced and traced samples and reports the
layer ledger (``ledger.py``) of the traced sample with the median wall
time, plus ``trace_overhead_frac`` against the untraced median. Which
metrics are reported, and their units, is read from ``BENCHMARK.json``.

Correctness: at the default seed every cold result must match the
sha256 digest in ``reference.json``; on any seed every sample of the run
must produce the same digest, every job must complete (every trial must
succeed), goodput and MFU must lie in (0, 1], a warm repeat must give
the same simulated outcome as the cold call, and a traced result must
equal the untraced one. A call that fails a check counts all its
operations (fleet jobs or sweep trials) as failed.

The last stdout line is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``. ``--bless`` re-takes ``reference.json`` at
the default seed instead of measuring.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
REFERENCE = HERE / "reference.json"
BENCHMARK = ROOT / "BENCHMARK.json"

sys.path.insert(0, str(HERE))
import workloads  # noqa: E402

#: A sample that runs this long has hung; the run fails.
CHILD_TIMEOUT_S = 150.0

#: Sample kinds, repeated in this order through a run.
PATTERNS = {0: ("full", "setup", "setup"), 1: ("full", "traced")}

class BenchmarkError(RuntimeError):
    """The program could not be measured (as opposed to measured wrong)."""


def child_env(workdir: Path) -> Dict[str, str]:
    env = {
        key: value
        for key, value in os.environ.items()
        # Test-only fault injection and invariant modes stay off.
        if not key.startswith("REPRO_")
    }
    env["PYTHONPATH"] = str(ROOT / "src")
    env["TMPDIR"] = str(workdir)
    return env


def spawn(workload: str, seed: int, workdir: Path, mode: str,
          slowdown: Optional[str] = None) -> Dict:
    """Run one sample process to completion and parse its result."""
    sample_dir = workdir / f"sample-{time.monotonic_ns()}"
    sample_dir.mkdir(parents=True)
    cmd = [
        sys.executable, str(HERE / "child.py"),
        "--workload", workload,
        "--seed", str(seed),
        "--workdir", str(sample_dir),
        "--mode", mode,
    ]
    if slowdown:
        cmd += ["--slowdown", slowdown]
    spawned = time.monotonic()
    try:
        proc = subprocess.run(
            cmd + ["--spawned", repr(spawned)],
            cwd=ROOT,
            env=child_env(workdir),
            capture_output=True,
            text=True,
            timeout=CHILD_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchmarkError(
            f"{workload} sample exceeded {CHILD_TIMEOUT_S:.0f}s"
        ) from exc
    finally:
        shutil.rmtree(sample_dir, ignore_errors=True)
    if proc.returncode != 0:
        raise BenchmarkError(
            f"{workload} sample exited {proc.returncode}:\n"
            f"{proc.stderr[-4000:]}"
        )
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise BenchmarkError(f"{workload} sample printed no result")
    sample = json.loads(lines[-1])
    sample["duration_s"] = time.monotonic() - spawned
    sample["mode"] = mode
    return sample


def collect(workload: str, seed: int, seconds: float, trace: int,
            workdir: Path) -> List[Dict]:
    """Samples in ``PATTERNS[trace]`` order, one at a time, until the
    next would overrun ``seconds`` by the last duration of its kind (at
    least one of each kind)."""
    pattern = PATTERNS[trace]
    samples: List[Dict] = []
    last: Dict[str, float] = {}
    start = time.monotonic()
    while True:
        mode = pattern[len(samples) % len(pattern)]
        elapsed = time.monotonic() - start
        if len(samples) >= len(pattern) and elapsed + last[mode] > seconds:
            return samples
        samples.append(spawn(workload, seed, workdir, mode))
        last[mode] = samples[-1]["duration_s"]


def check(workload: str, seed: int, samples: List[Dict]) -> int:
    """Print every problem found; return the failed operation count."""
    reference = None
    if seed == workloads.DEFAULT_SEED and REFERENCE.exists():
        reference = json.loads(REFERENCE.read_text())[workload]["sha256"]
    expected = reference or samples[0]["digest"]
    failed = 0
    for i, sample in enumerate(samples):
        if sample["mode"] == "setup":
            continue
        problems = list(sample["problems"])
        if sample["digest"] != expected:
            problems.append(
                f"digest {sample['digest'][:12]} != {expected[:12]}"
                + (" (reference)" if reference else " (first sample)")
            )
        if problems:
            failed += sample["operations"]
        for problem in problems:
            print(f"FAILED sample {i}: {problem}")
        if sample["warm_failed"]:
            failed += sample["warm_failed"] * sample["operations"]
            print(f"FAILED sample {i}: warm repeat differs from cold call")
    return failed


def median_sample(samples: List[Dict]) -> Dict:
    ordered = sorted(samples, key=lambda s: s["wall_s"])
    return ordered[(len(ordered) - 1) // 2]


def end_to_end(samples: List[Dict]) -> Dict[str, float]:
    """Medians over the samples: set-up over all of them, the rest over
    the full ones (the warm one over every warm call)."""
    full = [s for s in samples if s["mode"] == "full"]
    return {
        "setup_s": statistics.median(s["setup_s"] for s in samples),
        "wall_s": statistics.median(s["wall_s"] for s in full),
        "warm_wall_s": statistics.median(
            w for s in full for w in s["warm_wall_s"]
        ),
        "peak_rss_mb": statistics.median(s["peak_rss_mb"] for s in full),
    }


def speed_factor(samples: List[Dict]) -> float:
    """Median reference seconds per raw second of the cold calls."""
    return statistics.median(
        s["wall_s"] / s["raw"]["wall_s"]
        for s in samples if s["mode"] != "setup"
    )


def declared(trace: int) -> Dict[str, str]:
    """Metric name -> unit, as ``BENCHMARK.json`` declares them."""
    bench = json.loads(BENCHMARK.read_text())
    return {
        m["name"]: m["unit"]
        for m in bench["per_layer" if trace else "end_to_end"]
    }


def summarize(samples: List[Dict], trace: int,
              units: Dict[str, str]) -> Dict[str, float]:
    """Every declared metric of the run, in reference seconds."""
    if not trace:
        metrics = end_to_end(samples)
    else:
        traced = median_sample([s for s in samples if s["mode"] == "traced"])
        base = statistics.median(
            s["wall_s"] for s in samples if s["mode"] == "full"
        )
        # The same conversion as wall_s, so the self times still add up
        # to traced_wall_s == wall_s.
        scale = traced["wall_s"] / traced["raw"]["wall_s"]
        metrics = {
            name: value * scale if units.get(name) == "s" else value
            for name, value in traced["layers"].items()
        }
        metrics["trace_overhead_frac"] = (traced["wall_s"] - base) / base
    missing = sorted(set(units) - set(metrics))
    if missing:
        raise BenchmarkError(f"declared metrics not measured: {missing}")
    return {name: metrics[name] for name in units}


def measure(workload: str, seed: int, seconds: float, trace: int,
            workdir: Path) -> Tuple[List[Dict], int]:
    """The run's samples and its failed operation count."""
    samples = collect(workload, seed, seconds, trace, workdir)
    return samples, check(workload, seed, samples)


def remove_workdir(workdir: Path) -> None:
    """Remove a run's scratch directory, and its parent once empty."""
    shutil.rmtree(workdir, ignore_errors=True)
    try:
        workdir.parent.rmdir()
    except OSError:
        pass


def bless(workdir: Path) -> None:
    reference = {}
    for name in workloads.NAMES:
        sample = spawn(name, workloads.DEFAULT_SEED, workdir, "full")
        if sample["problems"] or sample["warm_failed"]:
            raise BenchmarkError(f"{name}: {sample['problems']}")
        reference[name] = {
            "seed": workloads.DEFAULT_SEED,
            "sha256": sample["digest"],
            "operations": sample["operations"],
            "headline": sample["headline"],
        }
        print(f"{name}: {sample['digest']}")
    REFERENCE.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--bless", action="store_true")
    args = parser.parse_args(argv)
    if not args.bless and args.workload is None:
        parser.error("--workload is required")
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"no library source under {ROOT / 'src'}", file=sys.stderr)
        return 2

    workdir = ROOT / ".perfbench-work" / str(os.getpid())
    try:
        if args.bless:
            bless(workdir)
            return 0
        unit = declared(args.trace)
        samples, failed = measure(
            args.workload, args.seed, args.seconds, args.trace, workdir
        )
        metrics = summarize(samples, args.trace, unit)
    except BenchmarkError as exc:
        print(str(exc), file=sys.stderr)
        return 1
    finally:
        remove_workdir(workdir)

    attempted = sum(
        s["operations"] * (1 + len(s["warm_wall_s"]))
        for s in samples
        if s["mode"] != "setup"
    )
    headline = samples[0]["headline"]
    print(f"{args.workload} seed={args.seed} samples={len(samples)} "
          f"digest={samples[0]['digest'][:16]}")
    for key, value in sorted(headline.items()):
        print(f"  {key:36s} {value:.6g}")
    for name, value in metrics.items():
        print(f"  {name:36s} {value:.6g} {unit[name]}")
    if not args.trace:
        raw = end_to_end([dict(s, **s["raw"]) for s in samples])
        for name in ("setup_s", "wall_s", "warm_wall_s"):
            print(f"  {'raw ' + name:36s} {raw[name]:.6g} s "
                  "(wall clock, not speed-corrected)")
        print(f"  {'speed factor':36s} {speed_factor(samples):.6g} "
              "reference s per raw s (cold calls)")
    print(f"  {'failed_frac':36s} {failed / attempted:.6g} ratio "
          f"({failed}/{attempted} operations)")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": unit[name]}
            for name, value in metrics.items()
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
