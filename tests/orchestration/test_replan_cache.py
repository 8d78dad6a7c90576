"""Every replan is a cold search, solved once per (task, size).

``core.api.replan`` fills :data:`~repro.orchestration.plancache.PLAN_CACHE`
with one compute, :func:`repro.core.api._replan_uncached`, which reads
nothing else from the cache. A random ±1-node elastic resize walk through
it — the config's own size included, revisits included — must return at
every feasible size exactly what a cold
:func:`~repro.orchestration.adaptive.replan_for_cluster` search returns,
whatever the walk planned before.
"""

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.core.api import _problem, replan
from repro.core.config import DistTrainConfig
from repro.orchestration.adaptive import replan_for_cluster
from repro.orchestration.errors import InfeasibleClusterError
from repro.orchestration.plancache import PLAN_CACHE

CONFIG = DistTrainConfig.preset("mllm-9b", 48, 16)
NODE = CONFIG.cluster.gpus_per_node


def comparable(result):
    """Every deterministic field of an OrchestrationResult — all but
    the wall-clock ``solve_seconds``."""
    return (
        result.plan,
        result.candidate,
        result.breakdown,
        result.candidates_evaluated,
        result.convex_solutions,
        result.simulated_pipeline_seconds,
    )


@settings(
    max_examples=4,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    steps=st.lists(
        st.sampled_from([-NODE, NODE]), min_size=3, max_size=8
    ),
)
def test_elastic_resize_walk_matches_cold_search(steps):
    PLAN_CACHE.clear()
    problem = _problem(CONFIG)
    size = CONFIG.cluster.num_gpus
    walk = [size]
    for step in steps:
        size = min(96, max(2 * NODE, size + step))
        walk.append(size)
    cold = {}
    for size in walk:
        if size not in cold:
            try:
                cold[size] = comparable(replan_for_cluster(problem, size))
            except InfeasibleClusterError:
                cold[size] = None
        if cold[size] is None:
            with pytest.raises(InfeasibleClusterError):
                replan(CONFIG, size)
            continue
        assert comparable(replan(CONFIG, size)) == cold[size], (
            f"cached replan != cold search at {size} GPUs"
        )
