"""Infeasible shrinks surface as a clear, typed, recoverable error."""

from dataclasses import replace

import pytest

from repro.cluster.cluster import make_cluster
from repro.cluster.node import AMPERE_NODE
from repro.core.api import _problem, replan
from repro.core.config import DistTrainConfig
from repro.orchestration import InfeasibleClusterError
from repro.orchestration.adaptive import (
    AdaptiveOrchestrator,
    replan_for_cluster,
)
from repro.orchestration.baselines import (
    DistMMOrchestrator,
    MegatronOrchestrator,
)
from repro.orchestration.plancache import PLAN_CACHE


class TestInfeasibleClusterError:
    def test_is_a_runtime_error(self):
        # Legacy callers catching the old generic failures keep working.
        assert issubclass(InfeasibleClusterError, RuntimeError)

    def test_adaptive_below_minimum(self):
        config = DistTrainConfig.preset("mllm-72b", 1296, 1920)
        with pytest.raises(InfeasibleClusterError, match="no feasible"):
            replan(config, 64)

    def test_non_node_size_is_infeasible_not_obscure(self):
        config = DistTrainConfig.preset("mllm-9b", 48, 16)
        with pytest.raises(InfeasibleClusterError, match="cannot re-plan"):
            replan_for_cluster(_problem(config), 4)

    def test_baselines_raise_the_same_type(self):
        config = DistTrainConfig.preset(
            "mllm-9b", 48, 16, system="megatron-lm"
        )
        with pytest.raises(InfeasibleClusterError, match="too small"):
            replan(config, 8)

    def test_carries_the_offending_size(self):
        config = DistTrainConfig.preset("mllm-72b", 1296, 1920)
        with pytest.raises(InfeasibleClusterError) as info:
            replan(config, 32)
        assert info.value.num_gpus == 32

    def test_failed_plans_stay_uncached(self):
        config = DistTrainConfig.preset("mllm-72b", 1296, 1920)
        PLAN_CACHE.clear()
        for _ in range(2):
            with pytest.raises(InfeasibleClusterError):
                replan(config, 64)
        # Both attempts computed; neither landed in the cache.
        assert len(PLAN_CACHE) == 0

    @pytest.mark.parametrize("orchestrator", [
        AdaptiveOrchestrator, MegatronOrchestrator, DistMMOrchestrator,
    ])
    def test_no_fitting_depth_is_infeasible(self, orchestrator):
        # mllm-moe-40b's LLM has no published Megatron-LM depth, so every
        # orchestrator searches for one; on 1 GiB GPUs none fits.
        node = replace(
            AMPERE_NODE, gpu=replace(AMPERE_NODE.gpu, memory_bytes=1024**3)
        )
        config = DistTrainConfig.preset("mllm-moe-40b", 64, 128)
        problem = replace(_problem(config), cluster=make_cluster(64, node))
        with pytest.raises(InfeasibleClusterError) as info:
            orchestrator(problem).plan()
        assert info.value.num_gpus == 64
