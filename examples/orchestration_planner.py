"""Production-scale orchestration planning (the paper's headline setup).

Plans MLLM-72B training on 1296 GPUs with global batch 1920 — the
configuration behind the paper's "54.7% MFU on 1172 GPUs" claim — then
inspects the resulting parallelism units, communication brokers, memory
budget, and the predicted vs simulated iteration time.

Run:  python examples/orchestration_planner.py
"""

from repro import DistTrainConfig, plan, simulate
from repro.core.reports import format_table
from repro.orchestration.memory import MemoryModel


def main() -> None:
    config = DistTrainConfig.preset(
        "mllm-72b", num_gpus=1296, global_batch_size=1920
    )
    result = plan(config)
    orchestration = result.plan

    print(orchestration.describe())
    print(f"solve time: {result.solve_seconds * 1e3:.0f} ms "
          f"({result.convex_solutions} convex subproblems, "
          f"{result.candidates_evaluated} rounded candidates)")
    print()

    # Parallelism units and their rank ranges.
    print("Parallelism units:")
    for unit in orchestration.build_units().values():
        print("  " + unit.describe())
    print()

    # Communication brokers bridging the unit boundaries (section 6).
    print("Communication brokers (gcd of neighbouring DP sizes):")
    for boundary, brokers in orchestration.build_brokers().items():
        print(f"  {boundary}: {len(brokers)} broker(s), "
              f"fan-in {brokers[0].fan_in}, fan-out {brokers[0].fan_out}")
    print()

    # Per-GPU memory budget of the LLM unit.
    memory = MemoryModel(gpu_memory_bytes=config.cluster.gpu.memory_bytes)
    llm_plan = orchestration.plans["llm"]
    from repro.models.base import ModuleWorkload

    llm = config.mllm.llm
    static = memory.static_bytes_per_gpu(
        llm.param_count(), llm_plan.tp, llm_plan.pp, llm_plan.dp, True
    )
    activations = memory.activation_bytes_per_gpu(
        llm.activation_bytes(ModuleWorkload(samples=config.microbatch_size)),
        llm_plan.tp,
        in_flight=llm_plan.pp + 2,
    ) / llm_plan.pp
    print(format_table(
        ["component", "GiB per GPU"],
        [
            ["params + grads + ZeRO-1 shard", f"{static / 2**30:.1f}"],
            ["1F1B peak activations", f"{activations / 2**30:.1f}"],
            ["capacity (usable)", f"{memory.capacity / 2**30:.1f}"],
        ],
        title="LLM unit memory budget:",
    ))
    print()

    # Simulate a real iteration on synthetic LAION-like data.
    iteration = simulate(config, result)
    print(f"simulated iteration: {iteration.iteration_time:.1f} s, "
          f"MFU {iteration.mfu * 100:.1f}%, "
          f"{iteration.throughput_tokens_per_s / 1e6:.2f}M tokens/s "
          f"on {iteration.num_gpus} GPUs")
    print(f"(paper: 54.7% MFU on 1172 GPUs for the same task)")


if __name__ == "__main__":
    main()
