"""Communication brokers bridging adjacent parallelism units.

When the encoder runs at DP=6 and the LLM at DP=3, microbatch tensors must
be re-partitioned at the unit boundary. The paper's *communication broker*
(sections 4.1, 6) concentrates and scatters data between upstream and
downstream GPU processes while preserving sample order, lives on the GPUs
of the boundary stages (decentralized), and is instantiated
``gcd(DP_up, DP_down)`` times so aggregate bandwidth scales with the
workload.

This module computes the broker layout and the per-microbatch transfer
time, and verifies order preservation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Tuple

from repro.cluster.interconnect import LinkSpec
from repro.parallelism.unit import ParallelismUnit


@dataclass(frozen=True)
class CommunicationBroker:
    """One broker instance bridging a slice of the DP space.

    Attributes:
        index: Broker index in ``range(num_brokers)``.
        upstream_dp_indices: Upstream DP replicas this broker serves.
        downstream_dp_indices: Downstream DP replicas this broker feeds.
        host_rank: Global rank hosting the broker (a boundary-stage GPU).
    """

    index: int
    upstream_dp_indices: Tuple[int, ...]
    downstream_dp_indices: Tuple[int, ...]
    host_rank: int

    @property
    def fan_in(self) -> int:
        return len(self.upstream_dp_indices)

    @property
    def fan_out(self) -> int:
        return len(self.downstream_dp_indices)


def broker_count(dp_up: int, dp_down: int) -> int:
    """Brokers between units of ``dp_up`` and ``dp_down`` DP replicas:
    ``gcd(DP_up, DP_down)`` (section 6)."""
    return math.gcd(dp_up, dp_down)


def plan_brokers(
    upstream: ParallelismUnit, downstream: ParallelismUnit
) -> List[CommunicationBroker]:
    """Lay out brokers between two adjacent units.

    There are :func:`broker_count` brokers, each serving a contiguous
    slice of both DP spaces. Brokers alternate hosting between the
    upstream last stage and downstream first stage to spread load.
    """
    dp_up = upstream.plan.dp
    dp_down = downstream.plan.dp
    num_brokers = broker_count(dp_up, dp_down)
    up_per = dp_up // num_brokers
    down_per = dp_down // num_brokers
    up_ranks = upstream.last_stage_ranks()
    down_ranks = downstream.first_stage_ranks()
    brokers = []
    for i in range(num_brokers):
        up_slice = tuple(range(i * up_per, (i + 1) * up_per))
        down_slice = tuple(range(i * down_per, (i + 1) * down_per))
        # Decentralized placement: alternate sides (section 6).
        if i % 2 == 0:
            host = up_ranks[(i * up_per * upstream.plan.tp) % len(up_ranks)]
        else:
            host = down_ranks[(i * down_per * downstream.plan.tp) % len(down_ranks)]
        brokers.append(
            CommunicationBroker(
                index=i,
                upstream_dp_indices=up_slice,
                downstream_dp_indices=down_slice,
                host_rank=host,
            )
        )
    return brokers


def broker_transfer_time(
    num_brokers: int,
    microbatch_bytes: float,
    link: LinkSpec,
    asynchronous: bool = True,
) -> float:
    """Time to move one microbatch's boundary tensor between units
    through ``num_brokers`` brokers.

    Brokers operate in parallel, each carrying its slice of the data.
    DistTrain replaces Megatron's synchronous batched send/recv with
    asynchronous discrete operations (section 6); the synchronous variant
    doubles the exposed latency because the upstream stage stalls until
    the downstream receive completes.
    """
    if num_brokers < 1:
        raise ValueError("no brokers planned")
    if microbatch_bytes < 0:
        raise ValueError("negative transfer volume")
    per_broker = microbatch_bytes / num_brokers
    transfer = link.transfer_time(per_broker)
    if not asynchronous:
        transfer += link.latency + per_broker / link.effective_bandwidth
    return transfer
