"""Disaggregated data preprocessing (section 5.1).

Models both deployment modes the paper compares in Figure 17:

* **co-located** (Megatron-LM): preprocessing shares the training node's
  CPUs and its cost lands on the iteration critical path — seconds per
  iteration for image-heavy batches;
* **disaggregated** (DistTrain): dedicated CPU nodes run a producer /
  consumer pipeline over RPC/RDMA; steady-state overhead collapses to the
  tensor-transfer milliseconds, and reordering runs off the critical path
  for free.

``"none"`` prices no preprocessing at all.
"""

from repro.preprocessing.cost import PreprocessCostModel
from repro.preprocessing.transfer import TransferModel
from repro.preprocessing.colocated import CoLocatedPreprocessing
from repro.preprocessing.disaggregated import (
    DisaggregatedPreprocessing,
    required_cpu_nodes,
)

#: The preprocessing modes a task can run (``DistTrainConfig.preprocessing``).
PREPROCESSING_MODES = ("disaggregated", "colocated", "none")

__all__ = [
    "PREPROCESSING_MODES",
    "PreprocessCostModel",
    "TransferModel",
    "CoLocatedPreprocessing",
    "DisaggregatedPreprocessing",
    "required_cpu_nodes",
]
