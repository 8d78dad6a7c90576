"""Tests for topology, rank placement, and failure domains."""

from dataclasses import replace

import pytest

from repro.cluster.cluster import ClusterSpec, NodePool, make_cluster
from repro.cluster.interconnect import LinkSpec
from repro.cluster.node import AMPERE_NODE
from repro.cluster.topology import ClusterTopology, FailureDomain, RankPlacement

SLOW_FABRIC = LinkSpec(name="roce-slow", bandwidth=5e9, efficiency=0.8)

#: Two pools whose nodes sit on fabrics of different speed.
HETERO_CLUSTER = ClusterSpec(
    pools=(
        NodePool(node=AMPERE_NODE, num_nodes=2, name="fast"),
        NodePool(
            node=replace(
                AMPERE_NODE, name="ampere-slow", inter_link=SLOW_FABRIC
            ),
            num_nodes=2,
            name="slow",
        ),
    ),
)


class TestAllocation:
    def test_contiguous_allocation(self):
        topo = ClusterTopology(make_cluster(32))
        a = topo.allocate("encoder", 8)
        b = topo.allocate("llm", 16)
        assert list(a.gpu_indices) == list(range(0, 8))
        assert list(b.gpu_indices) == list(range(8, 24))
        assert topo.free_gpus == 8

    def test_over_allocation_raises(self):
        topo = ClusterTopology(make_cluster(8))
        topo.allocate("llm", 8)
        with pytest.raises(RuntimeError):
            topo.allocate("generator", 1)

    def test_reset(self):
        topo = ClusterTopology(make_cluster(8))
        topo.allocate("llm", 8)
        topo.reset()
        assert topo.free_gpus == 8
        assert topo.placements == ()

    def test_placement_validation(self):
        with pytest.raises(ValueError):
            RankPlacement("x", -1, 4)
        with pytest.raises(ValueError):
            RankPlacement("x", 0, 0)


class TestLinkSelection:
    def test_intra_node_uses_nvlink(self):
        topo = ClusterTopology(make_cluster(16))
        link = topo.link_between(0, 7)
        assert "nvlink" in link.name

    def test_cross_node_uses_roce(self):
        topo = ClusterTopology(make_cluster(16))
        link = topo.link_between(0, 8)
        assert "roce" in link.name

    def test_group_link_bottleneck(self):
        topo = ClusterTopology(make_cluster(16))
        assert "nvlink" in topo.group_link(list(range(8))).name
        assert "roce" in topo.group_link([0, 8]).name

    def test_empty_group_rejected(self):
        topo = ClusterTopology(make_cluster(8))
        with pytest.raises(ValueError):
            topo.group_link([])

    def test_cross_pool_group_bottlenecked_by_slowest_member(self):
        """A group spanning pools with different NICs runs at the
        slower pool's bandwidth regardless of which member is listed
        first (GPUs 0-15 are the fast pool, 16-31 the slow one)."""
        topo = ClusterTopology(HETERO_CLUSTER)
        for group in ([0, 16], [16, 0], [0, 8, 16, 24]):
            assert topo.group_link(group).name == "roce-slow"

    def test_cross_node_group_within_fast_pool_stays_fast(self):
        topo = ClusterTopology(HETERO_CLUSTER)
        assert "roce-slow" not in topo.group_link([0, 8]).name


class TestFailureDomains:
    def test_single_pool_nodes_and_racks(self):
        domains = ClusterTopology(make_cluster(48)).failure_domains()
        names = set(domains)
        assert {f"node{i}" for i in range(6)} <= names
        assert {"rack0", "rack1"} <= names
        assert domains["rack0"].node_indices == (0, 1, 2, 3)
        assert domains["rack0"].num_gpus == 32
        assert domains["rack1"].node_indices == (4, 5)
        assert domains["rack1"].num_gpus == 16
        assert all(d.num_gpus == 8 for n, d in domains.items()
                   if d.scope == "node")

    def test_racks_never_span_pools(self):
        domains = ClusterTopology(HETERO_CLUSTER).failure_domains(
            nodes_per_rack=4
        )
        racks = [d for d in domains.values() if d.scope == "rack"]
        assert [d.node_indices for d in racks] == [(0, 1), (2, 3)]

    def test_gpu_totals_cover_the_cluster_exactly_twice(self):
        # Every GPU belongs to exactly one node domain and one rack.
        cluster = make_cluster(96)
        domains = ClusterTopology(cluster).failure_domains()
        by_scope = {"node": 0, "rack": 0}
        for domain in domains.values():
            by_scope[domain.scope] += domain.num_gpus
        assert by_scope == {"node": 96, "rack": 96}

    def test_rejects_invalid_inputs(self):
        with pytest.raises(ValueError):
            ClusterTopology(make_cluster(8)).failure_domains(0)
        with pytest.raises(ValueError):
            FailureDomain("", "node", (0,), 8)
        with pytest.raises(ValueError):
            FailureDomain("x", "pod", (0,), 8)
        with pytest.raises(ValueError):
            FailureDomain("x", "node", (), 8)

