"""Collective-communication cost models.

Standard ring-algorithm cost formulas over a :class:`LinkSpec`:

* allreduce moves ``2 * (n-1)/n * V`` bytes through the slowest link;
* allgather / reduce-scatter move ``(n-1)/n * V``;
* point-to-point sends move ``V`` once.

Per-step latency is charged per ring hop, which matters for the small
activations crossing pipeline stages but is negligible for gradient
allreduce.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.cluster.interconnect import LinkSpec

#: Fraction of the DP gradient reduce-scatter + param allgather left
#: exposed after overlapping with the backward pass (see
#: :meth:`CollectiveModel.dp_sync_exposed`).
DP_SYNC_EXPOSED_FRACTION = 0.3


def _validate(volume_bytes: float, group_size: int) -> None:
    if volume_bytes < 0:
        raise ValueError("volume must be non-negative")
    if group_size < 1:
        raise ValueError("group size must be >= 1")


def ring_allreduce_time(
    volume_bytes: float, group_size: int, link: LinkSpec
) -> float:
    """Ring allreduce of ``volume_bytes`` across ``group_size`` ranks."""
    _validate(volume_bytes, group_size)
    if group_size == 1 or volume_bytes == 0:
        return 0.0
    return _ring_allreduce(volume_bytes, group_size, link)


def ring_allreduce_times(
    volume_bytes: np.ndarray, group_size: int, link: LinkSpec
) -> np.ndarray:
    """:func:`ring_allreduce_time` of each element of a float64 array of
    non-negative volumes, bit for bit; zero volumes take exactly 0.0 s."""
    if group_size < 1:
        raise ValueError("group size must be >= 1")
    if group_size == 1:
        return np.zeros_like(volume_bytes)
    times = _ring_allreduce(volume_bytes, group_size, link)
    return np.where(volume_bytes == 0, 0.0, times)


def _ring_allreduce(volume_bytes, n: int, link: LinkSpec):
    """Ring allreduce time on ``n > 1`` ranks: one body for floats and
    arrays."""
    moved = 2.0 * (n - 1) / n * volume_bytes
    return moved / link.effective_bandwidth + 2 * (n - 1) * link.latency


def ring_allgather_time(
    volume_bytes: float, group_size: int, link: LinkSpec
) -> float:
    """Ring allgather where the *result* is ``volume_bytes`` large."""
    _validate(volume_bytes, group_size)
    if group_size == 1 or volume_bytes == 0:
        return 0.0
    n = group_size
    moved = (n - 1) / n * volume_bytes
    return moved / link.effective_bandwidth + (n - 1) * link.latency


def ring_reduce_scatter_time(
    volume_bytes: float, group_size: int, link: LinkSpec
) -> float:
    """Ring reduce-scatter of a ``volume_bytes`` input buffer."""
    # Same traffic pattern as allgather, reversed.
    return ring_allgather_time(volume_bytes, group_size, link)


def all_to_all_time(
    total_bytes: float, group_size: int, link: LinkSpec
) -> float:
    """All-to-all of ``total_bytes`` (summed over all ranks).

    Each rank holds ``total/n`` and keeps ``1/n`` of it local, sending
    the rest across its own link; ranks transmit concurrently.
    """
    _validate(total_bytes, group_size)
    if group_size == 1 or total_bytes == 0:
        return 0.0
    n = group_size
    per_rank = total_bytes / n * (n - 1) / n
    return per_rank / link.effective_bandwidth + (n - 1) * link.latency


def p2p_time(volume_bytes: float, link: LinkSpec) -> float:
    """Point-to-point send of ``volume_bytes`` (pipeline activations)."""
    if volume_bytes < 0:
        raise ValueError("volume must be non-negative")
    if volume_bytes == 0:
        return 0.0
    return link.transfer_time(volume_bytes)


@dataclass(frozen=True)
class CollectiveModel:
    """Bundle of collective models bound to intra-/inter-node links.

    Tensor parallelism stays inside a node (NVLink); data- and pipeline-
    parallel traffic crosses the RoCE fabric. ``tp_groups_per_node`` tracks
    how many TP groups share the node's NVLink fabric (when TP < 8,
    multiple groups contend).
    """

    intra_link: LinkSpec
    inter_link: LinkSpec

    def tp_allreduce(self, volume_bytes: float, tp: int) -> float:
        """One TP allreduce on the NVLink fabric."""
        return ring_allreduce_time(volume_bytes, tp, self.intra_link)

    def tp_allreduce_times(
        self, volume_bytes: np.ndarray, tp: int
    ) -> np.ndarray:
        """:meth:`tp_allreduce` of each element of an array of volumes."""
        return ring_allreduce_times(volume_bytes, tp, self.intra_link)

    def dp_reduce_scatter(self, volume_bytes: float, dp: int) -> float:
        return ring_reduce_scatter_time(volume_bytes, dp, self.inter_link)

    def dp_allgather(self, volume_bytes: float, dp: int) -> float:
        return ring_allgather_time(volume_bytes, dp, self.inter_link)

    def dp_sync_exposed(
        self, param_count: float, tp: int, pp: int, dp: int
    ) -> float:
        """Exposed ZeRO-1 sync of one module's DP group: the gradient
        reduce-scatter plus the param allgather of its bf16 shard
        (``param_count / (tp*pp)`` parameters at 2 bytes each), of which
        :data:`DP_SYNC_EXPOSED_FRACTION` stays exposed.

        The orchestration search and the iteration simulator both
        charge it.
        """
        shard_bytes = param_count / (tp * pp) * 2.0
        rs = self.dp_reduce_scatter(shard_bytes, dp)
        ag = self.dp_allgather(shard_bytes, dp)
        return (rs + ag) * DP_SYNC_EXPOSED_FRACTION

    def pp_send(self, volume_bytes: float) -> float:
        """Pipeline activation send between adjacent stages."""
        return p2p_time(volume_bytes, self.inter_link)

    def ep_all_to_all(self, total_bytes: float, ep: int) -> float:
        """Expert-parallel token dispatch/combine (cross-node)."""
        return all_to_all_time(total_bytes, ep, self.inter_link)
