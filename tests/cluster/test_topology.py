"""Tests for failure domains."""

from dataclasses import replace

import pytest

from repro.cluster.cluster import ClusterSpec, NodePool, make_cluster
from repro.cluster.interconnect import LinkSpec
from repro.cluster.node import AMPERE_NODE
from repro.cluster.topology import FailureDomain, failure_domains

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


class TestFailureDomains:
    def test_single_pool_nodes_and_racks(self):
        domains = failure_domains(make_cluster(48))
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
        domains = failure_domains(HETERO_CLUSTER, nodes_per_rack=4)
        racks = [d for d in domains.values() if d.scope == "rack"]
        assert [d.node_indices for d in racks] == [(0, 1), (2, 3)]

    def test_gpu_totals_cover_the_cluster_exactly_twice(self):
        # Every GPU belongs to exactly one node domain and one rack.
        cluster = make_cluster(96)
        domains = failure_domains(cluster)
        by_scope = {"node": 0, "rack": 0}
        for domain in domains.values():
            by_scope[domain.scope] += domain.num_gpus
        assert by_scope == {"node": 96, "rack": 96}

    def test_rejects_invalid_inputs(self):
        with pytest.raises(ValueError):
            failure_domains(make_cluster(8), 0)
        with pytest.raises(ValueError):
            FailureDomain("", "node", (0,), 8)
        with pytest.raises(ValueError):
            FailureDomain("x", "pod", (0,), 8)
        with pytest.raises(ValueError):
            FailureDomain("x", "node", (), 8)

