"""Multimodal training data: synthetic LAION-400M-like generator.

The paper characterizes LAION-400M (section 2.3, Figure 5): text and
image subsequences have highly skewed size distributions, and so does the
image count per training sample. Interleaved subsequences are packed into
fixed 8192-token training sequences. This package reproduces the
generator, the packing, and the statistics — the raw dataset itself is
substituted by a calibrated synthetic sampler (see DESIGN.md).
"""

from repro.data.sample import Subsequence, TrainingSample
from repro.data.distributions import (
    DataDistributionConfig,
    LAION_400M_LIKE,
    sample_text_subsequence_tokens,
    sample_image_subsequence_tokens,
    sample_image_count,
)
from repro.data.synthetic import SyntheticMultimodalDataset
from repro.data.packing import pack_subsequences
from repro.data.stats import DatasetStatistics, histogram_density

__all__ = [
    "Subsequence",
    "TrainingSample",
    "DataDistributionConfig",
    "LAION_400M_LIKE",
    "sample_text_subsequence_tokens",
    "sample_image_subsequence_tokens",
    "sample_image_count",
    "SyntheticMultimodalDataset",
    "pack_subsequences",
    "DatasetStatistics",
    "histogram_density",
]
