"""Model-FLOPs-Utilization (MFU) and throughput accounting.

MFU is the fraction of the allocated GPUs' peak FLOPs spent on *model*
FLOPs (section 7, "Metrics"): the forward FLOPs the architecture requires
plus the backward FLOPs the training phase actually needs (full backward
for trainable modules, dX-only relays for frozen ones, none for a frozen
encoder). Simulator/kernel inefficiency, communication, and bubbles all
lower MFU by inflating wall-clock time, never by inflating FLOPs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Tuple

from repro.data.sample import BatchColumns, TrainingSample
from repro.models.base import ModuleWorkload
from repro.models.mllm import MultimodalLLMSpec
from repro.numerics import fold_sum, price_by_count
from repro.runtime.frozen import FrozenConfig


@dataclass
class ModelFlopsAccountant:
    """Computes required model FLOPs for batches of training samples.

    The backbone sees ``seq_len`` tokens per sample whatever the modality
    mix, and the generator and output projector see only the sample's
    image count, so those terms are priced once per accountant: the LLM's
    at construction, the generator's per image count. :meth:`batch_flops`
    prices a batch on its int64 columns (the encoder and input projector
    per sample, the image-count terms gathered by count) and sums the
    per-sample totals left to right, bit for bit the scalar fold.
    """

    mllm: MultimodalLLMSpec
    frozen: FrozenConfig

    def __post_init__(self) -> None:
        self._encoder_factor = 1.0 + self.frozen.backward_factor("encoder")
        self._llm_term = self.mllm.llm.forward_flops(
            ModuleWorkload(samples=1)
        ) * (1.0 + self.frozen.backward_factor("llm"))
        # Image count -> (generator term, output-projector forward FLOPs).
        self._image_terms: Dict[int, Tuple[float, float]] = {}

    def generator_workload(self, num_images: int) -> ModuleWorkload:
        """The generator's workload for a sample of ``num_images``: it
        produces every image at the model's generation resolution."""
        gen_tokens = self.mllm.generation_image_tokens
        return ModuleWorkload(
            samples=1, image_tokens=num_images * gen_tokens, images=num_images
        )

    def sample_flops(self, sample: TrainingSample) -> float:
        """Model FLOPs one sample requires under the frozen config."""
        workload = sample.workload()
        generator, output_projector = self._terms_for(sample.num_images)
        total = (
            self.mllm.encoder.forward_flops(workload) * self._encoder_factor
            + self._llm_term
            + generator
        )
        # Projectors (always trainable: forward + full backward).
        proj_fwd = self.mllm.input_projector.forward_flops(workload)
        proj_fwd += output_projector
        return total + proj_fwd * 3.0

    def batch_flops(self, columns: BatchColumns) -> float:
        """:meth:`sample_flops` of every sample of a batch, summed left
        to right, priced on the batch's image columns: the same
        operations in the same order, so the total equals the scalar
        fold bit for bit."""
        image_tokens, images = columns.image_tokens, columns.num_images
        generator, output_projector = price_by_count(images, self._terms_for)
        mllm = self.mllm
        total = (
            mllm.encoder.forward_flops_array(image_tokens, images)
            * self._encoder_factor
            + self._llm_term
            + generator
        )
        proj_fwd = mllm.input_projector.token_flops(image_tokens)
        proj_fwd += output_projector
        return fold_sum((total + proj_fwd * 3.0).tolist())

    def _terms_for(self, num_images: int) -> Tuple[float, float]:
        """(generator term, output-projector forward FLOPs) of a sample
        with ``num_images`` images."""
        terms = self._image_terms.get(num_images)
        if terms is None:
            generated = self.generator_workload(num_images)
            terms = self._image_terms[num_images] = (
                self.mllm.generator.forward_flops(generated)
                * (1.0 + self.frozen.backward_factor("generator")),
                self.mllm.output_projector.forward_flops(generated),
            )
        return terms


def mfu(
    model_flops: float,
    seconds: float,
    num_gpus: int,
    peak_flops_per_gpu: float,
) -> float:
    """Model FLOPs utilization in [0, 1]."""
    if seconds <= 0 or num_gpus <= 0 or peak_flops_per_gpu <= 0:
        raise ValueError("seconds, num_gpus, peak must be positive")
    return model_flops / (seconds * num_gpus * peak_flops_per_gpu)


def token_throughput(
    global_batch_size: int, seq_len: int, seconds: float
) -> float:
    """Training throughput in tokens/second (Figure 14's metric)."""
    if seconds <= 0:
        raise ValueError("seconds must be positive")
    return global_batch_size * seq_len / seconds
