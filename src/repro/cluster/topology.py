"""Cluster topology as failure domains.

:func:`failure_domains` catalogs a cluster's :class:`FailureDomain`
blast radii (nodes, racks), which correlated fault events target by name.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Tuple

from repro.cluster.cluster import ClusterSpec

#: Default rack granularity used when a cluster spec does not say
#: otherwise: racks are consecutive blocks of this many nodes per pool.
DEFAULT_NODES_PER_RACK = 4


@dataclass(frozen=True)
class FailureDomain:
    """A named blast radius: the GPUs that die together.

    Attributes:
        name: Stable handle events reference (``"node3"``, ``"rack1"``).
        scope: ``"node"`` or ``"rack"``.
        node_indices: Flat node indices the domain covers.
        num_gpus: Total GPUs inside the domain.
    """

    name: str
    scope: str
    node_indices: Tuple[int, ...]
    num_gpus: int

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("failure domain needs a name")
        if self.scope not in ("node", "rack"):
            raise ValueError(f"unknown failure-domain scope {self.scope!r}")
        if not self.node_indices:
            raise ValueError("failure domain must cover at least one node")
        if self.num_gpus < 1:
            raise ValueError("failure domain must hold at least one GPU")


def failure_domains(
    cluster: ClusterSpec, nodes_per_rack: int = DEFAULT_NODES_PER_RACK
) -> Dict[str, FailureDomain]:
    """Named blast radii correlated fault events can target.

    Every physical node is a ``node{i}`` domain; consecutive nodes
    within a pool are grouped into ``rack{j}`` domains of up to
    ``nodes_per_rack`` nodes (racks never span pools — they share a
    power/switch boundary, not just an index range). Domain names
    are stable for a given cluster shape, so a trace recorded
    against one slice replays against any same-shape slice.
    """
    if nodes_per_rack < 1:
        raise ValueError("nodes_per_rack must be >= 1")
    domains: Dict[str, FailureDomain] = {}
    node_index = 0
    rack_index = 0
    for pool in cluster.pools:
        pool_nodes = []
        for _ in range(pool.num_nodes):
            name = f"node{node_index}"
            domains[name] = FailureDomain(
                name=name,
                scope="node",
                node_indices=(node_index,),
                num_gpus=pool.node.gpus_per_node,
            )
            pool_nodes.append(node_index)
            node_index += 1
        for start in range(0, len(pool_nodes), nodes_per_rack):
            members = tuple(pool_nodes[start : start + nodes_per_rack])
            name = f"rack{rack_index}"
            domains[name] = FailureDomain(
                name=name,
                scope="rack",
                node_indices=members,
                num_gpus=len(members) * pool.node.gpus_per_node,
            )
            rack_index += 1
    return domains
