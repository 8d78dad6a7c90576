"""Visual demo of DistTrain's two-level data reordering (section 5).

Draws a skewed multimodal batch, shows the intra-microbatch straggler
across DP groups (Figure 6) and Algorithm 1's fix (Figure 11), then
renders the 1F1B pipeline before/after Algorithm 2's inter-microbatch
reordering (Figures 7/12) as ASCII Gantt charts.

Run:  python examples/data_reordering_demo.py
"""

import numpy as np

from repro.data.synthetic import SyntheticMultimodalDataset
from repro.pipeline.schedules import ScheduleKind
from repro.pipeline.simulator import PipelineSimulator, StageWork
from repro.reordering.baselines import random_order
from repro.reordering.inter import InterReorderer, MicrobatchCostModel
from repro.reordering.intra import intra_reorder, reordered_makespan
from repro.viz import stage_utilization_chart


def intra_demo() -> None:
    print("=" * 72)
    print("Intra-microbatch reordering (Algorithm 1, Figures 6/11)")
    print("=" * 72)
    batch = SyntheticMultimodalDataset(seed=7).take(64)
    dp = 8
    ideal = sum(s.size for s in batch) / dp
    for label, order in (
        ("arrival order", list(batch)),
        ("random (Megatron-LM)", random_order(batch, seed=0)),
        ("Algorithm 1 (LPT)", intra_reorder(batch, dp)),
    ):
        makespan = reordered_makespan(order, dp)
        bar = "#" * int(40 * makespan / (1.5 * ideal))
        print(f"  {label:<22} straggler load {makespan:>8.0f} tokens "
              f"({makespan / ideal:.3f}x ideal) {bar}")
    print()


def inter_demo() -> None:
    print("=" * 72)
    print("Inter-microbatch reordering (Algorithm 2, Figures 7/12)")
    print("=" * 72)
    rng = np.random.default_rng(3)
    l, p = 12, 4
    fwd = np.ones((l, p)) * 1.0
    fwd[:, 0] = rng.lognormal(0.1, 0.8, l)   # skewed encoder stage
    fwd[:, -1] = rng.lognormal(-0.8, 0.8, l)  # skewed generator stage
    bwd = 2.0 * fwd
    costs = MicrobatchCostModel(fwd=fwd, bwd=bwd)
    reorderer = InterReorderer(costs)

    def render(order, label):
        sim = PipelineSimulator(p, l, ScheduleKind.ONE_F_ONE_B)
        trace = sim.run(StageWork.from_tables(fwd[order].T, bwd[order].T))
        print(f"{label}: makespan {trace.makespan:.1f}s, "
              f"bubble {trace.bubble_fraction() * 100:.0f}%")
        print(trace.render_ascii(100))
        print(stage_utilization_chart(trace, width=40))
        print()
        return trace.makespan

    base = render(list(range(l)), "before (arrival order)")
    ours = render(reorderer.reorder(), "after Algorithm 2")
    print(f"inter-microbatch reordering saved "
          f"{(1 - ours / base) * 100:.1f}% of the pipeline makespan")


def main() -> None:
    intra_demo()
    inter_demo()


if __name__ == "__main__":
    main()
