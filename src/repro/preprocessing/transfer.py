"""Preprocessed-tensor transfer model (RPC over TCP or RDMA).

The disaggregated producer ships ready-to-train tensors to the GPU nodes:
resized image bitmaps (uint8 RGB at the model resolution) plus token ids.
With RDMA the per-microbatch transfer is sub-millisecond to a few
milliseconds — the "negligible relative to total iteration time" overhead
Figure 17 reports.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.cluster.interconnect import LinkSpec, ROCE_4X200
from repro.data.sample import BatchColumns
from repro.numerics import fold_sum


@dataclass(frozen=True)
class TransferModel:
    """Serialization + network cost of moving preprocessed samples.

    Attributes:
        link: Network link between CPU producers and GPU consumers.
        rpc_overhead_s: Per-message RPC framing/dispatch cost.
        bytes_per_image_token: Preprocessed image payload per image token
            (a 16x16 RGB patch = 768 bytes).
        bytes_per_text_token: Token-id payload (int32).
        use_rdma: RDMA skips a memcpy and most of the RPC stack.
    """

    link: LinkSpec = ROCE_4X200
    rpc_overhead_s: float = 500e-6
    bytes_per_image_token: float = 16 * 16 * 3
    bytes_per_text_token: float = 4.0
    use_rdma: bool = True

    def sample_bytes(self, sample):
        """Wire size of one preprocessed sample; given a batch's
        :class:`~repro.data.sample.BatchColumns`, of every sample, as
        one float64 array."""
        return (
            sample.image_tokens * self.bytes_per_image_token
            + sample.text_tokens * self.bytes_per_text_token
        )

    def microbatch_transfer_time(self, columns: BatchColumns) -> float:
        """Samples of one microbatch ship as a single batched message."""
        total_bytes = fold_sum(self.sample_bytes(columns).tolist())
        overhead = self.rpc_overhead_s * (0.1 if self.use_rdma else 1.0)
        return overhead + self.link.transfer_time(total_bytes)
