"""Preprocessed-tensor transfer model tests."""

import pytest

from repro.data.sample import BatchColumns
from repro.preprocessing.transfer import TransferModel

from tests.preprocessing.test_cost import image_sample


class TestTransfer:
    def test_sample_bytes_dominated_by_images(self):
        t = TransferModel()
        s = image_sample(8, 512, text=256)
        image_bytes = s.image_tokens * t.bytes_per_image_token
        assert t.sample_bytes(s) == pytest.approx(image_bytes, rel=0.01)

    def test_rdma_faster_than_tcp_rpc(self):
        s = BatchColumns.of([image_sample(8, 512)])
        rdma = TransferModel(use_rdma=True)
        tcp = TransferModel(use_rdma=False)
        rdma_s = rdma.microbatch_transfer_time(s)
        assert rdma_s < tcp.microbatch_transfer_time(s)

    def test_batched_message_cheaper_than_singles(self):
        t = TransferModel()
        samples = BatchColumns.of([image_sample(4, 512) for _ in range(8)])
        batched = t.microbatch_transfer_time(samples)
        singles = sum(
            t.microbatch_transfer_time(samples[i : i + 1]) for i in range(8)
        )
        assert batched < singles

    def test_transfer_is_milliseconds(self):
        t = TransferModel()
        batch = BatchColumns.of([image_sample(10, 1024)])
        assert t.microbatch_transfer_time(batch) < 0.05
