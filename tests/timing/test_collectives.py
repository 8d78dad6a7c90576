"""Collective communication cost model tests."""

import pytest

from repro.cluster.interconnect import NVLINK_300, ROCE_4X200, LinkSpec
from repro.timing.collectives import (
    DP_SYNC_EXPOSED_FRACTION,
    CollectiveModel,
    p2p_time,
    ring_allgather_time,
    ring_allreduce_time,
    ring_reduce_scatter_time,
)

LINK = LinkSpec(name="test", bandwidth=100e9, latency=1e-6, efficiency=1.0)


class TestRingFormulas:
    def test_single_rank_free(self):
        assert ring_allreduce_time(1e9, 1, LINK) == 0.0
        assert ring_allgather_time(1e9, 1, LINK) == 0.0

    def test_zero_volume_free(self):
        assert ring_allreduce_time(0, 8, LINK) == 0.0

    def test_allreduce_moves_2x_allgather(self):
        # Ignoring latency, allreduce moves twice the data of allgather.
        big = 1e12
        ar = ring_allreduce_time(big, 8, LINK)
        ag = ring_allgather_time(big, 8, LINK)
        assert ar / ag == pytest.approx(2.0, rel=0.01)

    def test_allreduce_analytic(self):
        n, volume = 4, 100e9
        expected = 2 * (n - 1) / n * volume / 100e9 + 2 * (n - 1) * 1e-6
        assert ring_allreduce_time(volume, n, LINK) == pytest.approx(expected)

    def test_reduce_scatter_equals_allgather(self):
        assert ring_reduce_scatter_time(5e9, 8, LINK) == pytest.approx(
            ring_allgather_time(5e9, 8, LINK)
        )

    def test_latency_dominates_small_messages(self):
        tiny = ring_allreduce_time(8, 8, LINK)
        assert tiny >= 2 * 7 * LINK.latency

    def test_validation(self):
        with pytest.raises(ValueError):
            ring_allreduce_time(-1, 8, LINK)
        with pytest.raises(ValueError):
            ring_allreduce_time(1, 0, LINK)

    def test_p2p(self):
        assert p2p_time(0, LINK) == 0.0
        assert p2p_time(100e9, LINK) == pytest.approx(1.0 + 1e-6)


class TestCollectiveModel:
    def setup_method(self):
        self.model = CollectiveModel(
            intra_link=NVLINK_300, inter_link=ROCE_4X200
        )

    def test_tp_on_nvlink_faster_than_dp_on_roce(self):
        volume = 1e9
        # A ring allreduce is a reduce-scatter plus an allgather.
        dp = self.model.dp_reduce_scatter(volume, 8)
        dp += self.model.dp_allgather(volume, 8)
        assert self.model.tp_allreduce(volume, 8) < dp

    def test_group_size_scaling(self):
        v = 10e9
        wide = self.model.dp_reduce_scatter(v, 16)
        assert wide > self.model.dp_reduce_scatter(v, 2)

    def test_pp_send(self):
        assert self.model.pp_send(1e6) > 0

    def test_dp_sync_exposed_charges_the_bf16_shard(self):
        params, tp, pp, dp = 7.5e9, 4, 2, 8
        shard = params / (tp * pp) * 2.0
        expected = (
            self.model.dp_reduce_scatter(shard, dp)
            + self.model.dp_allgather(shard, dp)
        ) * DP_SYNC_EXPOSED_FRACTION
        assert self.model.dp_sync_exposed(params, tp, pp, dp) == expected
        assert self.model.dp_sync_exposed(params, tp, pp, 1) == 0.0
