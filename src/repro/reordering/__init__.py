"""Disaggregated data reordering (section 5).

Two levels of reordering run on the dedicated preprocessing nodes:

* **intra-microbatch** (Algorithm 1) — greedy longest-processing-time
  partition of the global batch across DP groups, so no group becomes a
  straggler (Figures 6 and 11);
* **inter-microbatch** (Algorithm 2) — positions microbatches within one
  DP rank's local batch so their encoder/generator forward times fill
  the 1F1B pipeline intervals, minimizing bubbles (Figure 12).

Both only permute samples inside a global batch, so gradient accumulation
(a commutative sum) is unaffected and convergence semantics are
preserved — the property tests verify the permutation invariant.
"""

from repro.reordering.intra import (
    intra_reorder,
    lpt_partition,
    partition_makespan,
    reordered_makespan,
    brute_force_optimal_makespan,
)
from repro.reordering.inter import (
    InterReorderer,
    MicrobatchCostModel,
    reorder_ranks,
)
from repro.reordering.baselines import (
    random_order,
    sorted_order,
    round_robin_partition,
)

__all__ = [
    "intra_reorder",
    "lpt_partition",
    "partition_makespan",
    "reordered_makespan",
    "brute_force_optimal_makespan",
    "InterReorderer",
    "MicrobatchCostModel",
    "reorder_ranks",
    "random_order",
    "sorted_order",
    "round_robin_partition",
]
