"""Profiler (interpolated time functions) tests."""

import pytest

from repro.cluster.node import AMPERE_NODE
from repro.models.base import ModuleWorkload
from repro.models.llm import LLAMA3_7B
from repro.models.vit import VIT_HUGE
from repro.timing.costmodel import ModuleCostModel
from repro.timing.profiler import PerformanceProfiler, ProfileTable

import numpy as np


def build_profiler(noise=0.0):
    cost_models = {
        "llm": ModuleCostModel(LLAMA3_7B, AMPERE_NODE),
        "encoder": ModuleCostModel(VIT_HUGE, AMPERE_NODE),
    }
    profiler = PerformanceProfiler(
        cost_models=cost_models, tp_candidates=(1, 8), noise_std=noise
    )
    profiler.profile(max_units={"llm": 8, "encoder": 32768})
    return profiler, cost_models


class TestProfileTable:
    def test_requires_two_points(self):
        with pytest.raises(ValueError):
            ProfileTable(units=np.array([1.0]), seconds=np.array([1.0]))

    def test_sorts_inputs(self):
        table = ProfileTable(
            units=np.array([4.0, 1.0]), seconds=np.array([8.0, 2.0])
        )
        assert table.interpolate(2.0) == pytest.approx(4.0)

    def test_extrapolation_clamps_at_zero(self):
        table = ProfileTable(
            units=np.array([1.0, 2.0]), seconds=np.array([2.0, 1.0])
        )
        assert table.interpolate(10.0) == 0.0


class TestProfiler:
    def test_interpolation_matches_cost_model(self):
        profiler, cost_models = build_profiler()
        w = ModuleWorkload(samples=3)
        estimated = profiler.estimate("llm", w, 8, "fwd")
        direct = cost_models["llm"].forward_time(w, 8)
        assert estimated == pytest.approx(direct, rel=0.05)

    def test_encoder_interpolation(self):
        profiler, cost_models = build_profiler()
        w = ModuleWorkload(samples=1, image_tokens=10000, images=8)
        estimated = profiler.estimate("encoder", w, 1, "fwd")
        direct = cost_models["encoder"].forward_time(w, 1)
        assert estimated == pytest.approx(direct, rel=0.1)

    def test_unprofiled_tp_raises(self):
        profiler, _ = build_profiler()
        with pytest.raises(KeyError):
            profiler.estimate("llm", ModuleWorkload(samples=1), 4)

    def test_invalid_pass_name(self):
        profiler, _ = build_profiler()
        with pytest.raises(ValueError):
            profiler.estimate("llm", ModuleWorkload(samples=1), 8, "sideways")

    def test_fwd_bwd_with_frozen_flags(self):
        profiler, _ = build_profiler()
        w = ModuleWorkload(samples=2)
        full = profiler.estimate_fwd_bwd("llm", w, 8)
        relay = profiler.estimate_fwd_bwd("llm", w, 8, weight_grads=False)
        fwd_only = profiler.estimate_fwd_bwd("llm", w, 8, backward=False)
        assert fwd_only < relay < full

    def test_noise_reproducible(self):
        p1, _ = build_profiler(noise=0.05)
        p2, _ = build_profiler(noise=0.05)
        w = ModuleWorkload(samples=2)
        assert p1.estimate("llm", w, 8) == p2.estimate("llm", w, 8)

    def test_missing_max_units_raises(self):
        cost_models = {"llm": ModuleCostModel(LLAMA3_7B, AMPERE_NODE)}
        profiler = PerformanceProfiler(cost_models=cost_models)
        with pytest.raises(KeyError):
            profiler.profile(max_units={})
