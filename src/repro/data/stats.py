"""Dataset statistics: the Figure 5 characterization.

Computes the subsequence-size and image-count distributions of a sample
population, plus the heterogeneity measures (coefficient of variation,
percentile spread) that quantify how much straggler potential a dataset
carries.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence, Tuple

import numpy as np

from repro.data.sample import TrainingSample


def histogram_density(
    values: Sequence[float], bins: int = 40, value_range: Tuple[float, float] = None
) -> Tuple[np.ndarray, np.ndarray]:
    """Density histogram (normalized so the area integrates to 1).

    Returns ``(bin_centers, density)`` — the series plotted in Figure 5.
    """
    if len(values) == 0:
        raise ValueError("no values to histogram")
    density, edges = np.histogram(
        np.asarray(values, dtype=float), bins=bins, range=value_range, density=True
    )
    centers = (edges[:-1] + edges[1:]) / 2.0
    return centers, density


@dataclass
class DatasetStatistics:
    """Aggregated heterogeneity statistics of a sample population."""

    samples: List[TrainingSample]

    def __post_init__(self) -> None:
        if not self.samples:
            raise ValueError("empty sample population")

    # ------------------------------------------------------------------ #
    # Figure 5 series
    # ------------------------------------------------------------------ #
    def text_subsequence_sizes(self) -> List[int]:
        return [
            sub.tokens
            for sample in self.samples
            for sub in sample.subsequences
            if sub.modality == "text"
        ]

    def image_subsequence_sizes(self) -> List[int]:
        return [
            sub.tokens
            for sample in self.samples
            for sub in sample.subsequences
            if sub.modality == "image"
        ]

    def image_counts(self) -> List[int]:
        return [sample.num_images for sample in self.samples]

    def sample_sizes(self) -> List[int]:
        """Per-sample modality tokens (the straggler-driving quantity)."""
        return [sample.size for sample in self.samples]

    # ------------------------------------------------------------------ #
    # Heterogeneity measures
    # ------------------------------------------------------------------ #
    @staticmethod
    def _cv(values: Sequence[float]) -> float:
        array = np.asarray(values, dtype=float)
        mean = array.mean()
        return float(array.std() / mean) if mean > 0 else 0.0

    def sample_size_cv(self) -> float:
        """Coefficient of variation of per-sample size; >0.3 indicates
        meaningful straggler potential."""
        return self._cv(self.sample_sizes())

    def skewness(self, values: Sequence[float]) -> float:
        array = np.asarray(values, dtype=float)
        std = array.std()
        if std == 0:
            return 0.0
        return float(((array - array.mean()) ** 3).mean() / std**3)

    def percentile_spread(self, lo: float = 10, hi: float = 90) -> float:
        """p90/p10 ratio of sample sizes."""
        sizes = np.asarray(self.sample_sizes(), dtype=float)
        p_lo, p_hi = np.percentile(sizes, [lo, hi])
        return float(p_hi / max(p_lo, 1.0))

    def summary(self) -> dict:
        sizes = np.asarray(self.sample_sizes(), dtype=float)
        return {
            "num_samples": len(self.samples),
            "mean_image_tokens": float(sizes.mean()),
            "cv_image_tokens": self.sample_size_cv(),
            "skew_image_tokens": self.skewness(sizes),
            "p90_p10_spread": self.percentile_spread(),
            "mean_images_per_sample": float(np.mean(self.image_counts())),
        }
