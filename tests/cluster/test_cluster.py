"""Tests for cluster composition."""

import pytest

from repro.cluster.cluster import ClusterSpec, NodePool, make_cluster
from repro.cluster.node import AMPERE_NODE, L20_NODE, NodeSpec


class TestNodePool:
    def test_num_gpus(self):
        pool = NodePool(node=AMPERE_NODE, num_nodes=3)
        assert pool.num_gpus == 24

    def test_rejects_zero_nodes(self):
        with pytest.raises(ValueError):
            NodePool(node=AMPERE_NODE, num_nodes=0)

    def test_default_name(self):
        pool = NodePool(node=AMPERE_NODE, num_nodes=1)
        assert pool.name == AMPERE_NODE.name


class TestMakeCluster:
    def test_basic(self):
        cluster = make_cluster(96)
        assert cluster.num_gpus == 96
        assert cluster.num_nodes == 12
        assert cluster.gpus_per_node == 8

    def test_rejects_non_multiple(self):
        with pytest.raises(ValueError):
            make_cluster(97)

    def test_rejects_non_positive(self):
        with pytest.raises(ValueError):
            make_cluster(0)

    def test_paper_scale(self):
        cluster = make_cluster(1296)
        assert cluster.num_nodes == 162
        assert cluster.total_peak_flops == pytest.approx(
            1296 * 312e12, rel=1e-6
        )


class TestHeterogeneousCluster:
    def test_two_pools(self):
        cluster = ClusterSpec(
            pools=(
                NodePool(node=AMPERE_NODE, num_nodes=2),
                NodePool(node=L20_NODE, num_nodes=1),
            )
        )
        assert cluster.num_gpus == 24
        assert not cluster.is_homogeneous

    def test_requires_a_pool(self):
        with pytest.raises(ValueError):
            ClusterSpec(pools=())
