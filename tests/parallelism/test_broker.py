"""Communication broker tests."""

import math

import pytest

from repro.cluster.interconnect import ROCE_4X200
from repro.models.llm import LLAMA3_7B
from repro.models.vit import VIT_HUGE
from repro.parallelism.broker import (
    broker_count,
    broker_transfer_time,
    plan_brokers,
)
from repro.parallelism.plan import ParallelismPlan
from repro.parallelism.unit import ParallelismUnit


def units(dp_up, dp_down):
    up = ParallelismUnit(
        "encoder", VIT_HUGE, ParallelismPlan(tp=1, pp=1, dp=dp_up), 0
    )
    down = ParallelismUnit(
        "llm",
        LLAMA3_7B,
        ParallelismPlan(tp=2, pp=1, dp=dp_down),
        gpu_offset=dp_up,
    )
    return up, down


class TestBrokerPlanning:
    @pytest.mark.parametrize("dp_up,dp_down", [(6, 4), (8, 8), (3, 5), (1, 7)])
    def test_broker_count_is_gcd(self, dp_up, dp_down):
        brokers = plan_brokers(*units(dp_up, dp_down))
        assert len(brokers) == math.gcd(dp_up, dp_down)

    def test_broker_count_is_the_planned_count(self):
        for dp_up in range(1, 13):
            for dp_down in range(1, 13):
                assert broker_count(dp_up, dp_down) == len(
                    plan_brokers(*units(dp_up, dp_down))
                )

    def test_brokers_cover_dp_spaces(self):
        brokers = plan_brokers(*units(6, 4))
        up_covered = [i for b in brokers for i in b.upstream_dp_indices]
        down_covered = [i for b in brokers for i in b.downstream_dp_indices]
        assert sorted(up_covered) == list(range(6))
        assert sorted(down_covered) == list(range(4))

    def test_hosts_on_boundary_stages(self):
        up, down = units(4, 4)
        brokers = plan_brokers(up, down)
        boundary = set(up.last_stage_ranks()) | set(down.first_stage_ranks())
        for broker in brokers:
            assert broker.host_rank in boundary

    def test_fan_properties(self):
        brokers = plan_brokers(*units(6, 4))
        for broker in brokers:
            assert broker.fan_in == 3
            assert broker.fan_out == 2


class TestTransferTime:
    def test_more_brokers_faster(self):
        few = plan_brokers(*units(1, 7))
        many = plan_brokers(*units(8, 8))
        volume = 1e9
        assert broker_transfer_time(
            len(many), volume, ROCE_4X200
        ) < broker_transfer_time(len(few), volume, ROCE_4X200)

    def test_async_faster_than_sync(self):
        brokers = len(plan_brokers(*units(4, 4)))
        v = 1e8
        fast = broker_transfer_time(brokers, v, ROCE_4X200, asynchronous=True)
        slow = broker_transfer_time(brokers, v, ROCE_4X200, asynchronous=False)
        assert fast < slow

    def test_validation(self):
        with pytest.raises(ValueError):
            broker_transfer_time(0, 1.0, ROCE_4X200)
        brokers = len(plan_brokers(*units(2, 2)))
        with pytest.raises(ValueError):
            broker_transfer_time(brokers, -1.0, ROCE_4X200)
