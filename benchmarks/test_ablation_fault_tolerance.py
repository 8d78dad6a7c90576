"""Ablation — fault tolerance: checkpoint interval vs goodput.

DistTrain recovers from failures by reloading the latest asynchronous
checkpoint (sections 3 and 6). At thousand-GPU scale failures are
routine; the checkpoint interval trades steady-state stall (snapshots)
against replay after failures. Each interval runs the MLLM-72B task on
1,296 GPUs through the scenario engine: the real plan's iteration
times, its checkpoint stalls, and failures sampled at the per-GPU MTBF,
each rolling the run back to its latest durable checkpoint.
"""

from repro.core.config import DistTrainConfig
from repro.core.reports import format_table
from repro.scenarios import ScenarioSpec, run_scenario

CONFIG = DistTrainConfig.preset("mllm-72b", 1296, 1920)
NUM_ITERATIONS = 800
INTERVALS = (10, 50, 200, 800)


def sweep():
    return [
        (
            interval,
            run_scenario(
                CONFIG,
                ScenarioSpec(
                    num_iterations=NUM_ITERATIONS,
                    checkpoint_interval=interval,
                    mtbf_gpu_hours=30_000.0,
                    seed=11,
                ),
            ),
        )
        for interval in INTERVALS
    ]


def test_checkpoint_interval_sweep(benchmark):
    results = benchmark.pedantic(sweep, rounds=1, iterations=1)
    print()
    print(format_table(
        ["checkpoint every", "failures", "replayed iters", "goodput"],
        [
            [f"{interval} iters", r.num_failures, r.replayed_iterations,
             f"{r.goodput * 100:.1f}%"]
            for interval, r in results
        ],
        title=f"Ablation: fault tolerance at {CONFIG.cluster.num_gpus} "
              f"GPUs, {NUM_ITERATIONS} iterations of "
              f"{CONFIG.mllm.name}",
    ))
    by_interval = dict(results)
    # Failures occur at this scale and horizon (~9 hours of training).
    assert by_interval[200].num_failures >= 1
    # Sparse checkpointing replays more work than dense checkpointing.
    assert (
        by_interval[10].replayed_iterations
        <= by_interval[800].replayed_iterations
    )
    # Goodput stays high with a sane interval.
    assert by_interval[50].goodput > 0.90
