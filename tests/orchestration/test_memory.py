"""GPU memory feasibility tests."""

import numpy as np

import pytest

from repro.cluster.gpu import AMPERE_A100_80G
from repro.models.base import ModuleWorkload
from repro.models.llm import LLAMA3_7B, LLAMA3_70B
from repro.models.vit import VIT_HUGE
from repro.orchestration.memory import MemoryModel

MEMORY = MemoryModel(gpu_memory_bytes=AMPERE_A100_80G.memory_bytes)
W = ModuleWorkload(samples=1)


def accounting(module, workload=W):
    """A module's (param_count, activation_bytes) at ``workload``."""
    return module.param_count(), module.activation_bytes(workload)


class TestStaticBytes:
    def test_params_and_grads_scale_with_model_parallel(self):
        params = LLAMA3_70B.param_count()
        wide = MEMORY.static_bytes_per_gpu(params, tp=8, pp=10, dp=1,
                                           trainable=True)
        narrow = MEMORY.static_bytes_per_gpu(params, tp=1, pp=1, dp=1,
                                             trainable=True)
        assert narrow > 50 * wide

    def test_zero1_shards_optimizer_across_dp(self):
        params = LLAMA3_7B.param_count()
        dp1 = MEMORY.static_bytes_per_gpu(params, tp=8, pp=1, dp=1,
                                          trainable=True)
        dp8 = MEMORY.static_bytes_per_gpu(params, tp=8, pp=1, dp=8,
                                          trainable=True)
        optimizer_full = params * 12.0 / 8
        assert dp1 - dp8 == pytest.approx(optimizer_full * 7 / 8)

    def test_frozen_needs_only_params(self):
        params = LLAMA3_7B.param_count()
        frozen = MEMORY.static_bytes_per_gpu(params, tp=1, pp=1, dp=1,
                                             trainable=False)
        assert frozen == pytest.approx(params * 2.0)


class TestActivations:
    def test_in_flight_scaling(self):
        act = LLAMA3_7B.activation_bytes(W)
        one = MEMORY.activation_bytes_per_gpu(act, tp=8, in_flight=1)
        four = MEMORY.activation_bytes_per_gpu(act, tp=8, in_flight=4)
        assert four == pytest.approx(4 * one)

    def test_invalid_in_flight(self):
        act = LLAMA3_7B.activation_bytes(W)
        with pytest.raises(ValueError):
            MEMORY.activation_bytes_per_gpu(act, 1, 0)
        with pytest.raises(ValueError):
            MEMORY.activation_bytes_per_gpu(act, 1, np.array([2, 0]))


class TestFeasibility:
    def test_7b_fits_tp8(self):
        assert MEMORY.fits(*accounting(LLAMA3_7B), tp=8, pp=1, dp=4,
                           trainable=True, in_flight=3)

    def test_70b_needs_pipeline_at_tp8(self):
        fits_pp1 = MEMORY.fits(*accounting(LLAMA3_70B), tp=8, pp=1, dp=4,
                               trainable=True, in_flight=3)
        fits_pp10 = MEMORY.fits(*accounting(LLAMA3_70B), tp=8, pp=10, dp=4,
                                trainable=True, in_flight=12)
        assert fits_pp10
        assert not fits_pp1

    def test_70b_never_fits_tp1_pp1(self):
        assert not MEMORY.fits(*accounting(LLAMA3_70B), tp=1, pp=1, dp=1,
                               trainable=True, in_flight=1)

    def test_encoder_fits_single_gpu(self):
        w = ModuleWorkload(samples=1, image_tokens=8000, images=8)
        assert MEMORY.fits(*accounting(VIT_HUGE, w), tp=1, pp=1, dp=1,
                           trainable=True, in_flight=8)

    def test_scalar_call_returns_python_bool(self):
        got = MEMORY.fits(*accounting(LLAMA3_7B), tp=8, pp=1, dp=4,
                          trainable=True, in_flight=3)
        assert type(got) is bool


class TestMinPP:
    def test_min_pp_monotone_in_model_size(self):
        small = MEMORY.min_pp_for_llm(*accounting(LLAMA3_7B), tp=8, dp=4,
                                      trainable=True, max_pp=32)
        large = MEMORY.min_pp_for_llm(*accounting(LLAMA3_70B), tp=8, dp=4,
                                      trainable=True, max_pp=80)
        assert small <= large

    def test_frozen_reduces_min_pp(self):
        trainable = MEMORY.min_pp_for_llm(*accounting(LLAMA3_70B), tp=4,
                                          dp=2, trainable=True, max_pp=80)
        frozen = MEMORY.min_pp_for_llm(*accounting(LLAMA3_70B), tp=4, dp=2,
                                       trainable=False, max_pp=80)
        assert frozen <= trainable

    def test_unfittable_raises(self):
        # No depth fits: the result is 0, for scalar and array rows alike.
        tiny = MemoryModel(gpu_memory_bytes=1024**3)  # 1 GB GPU
        got = tiny.min_pp_for_llm(*accounting(LLAMA3_70B), tp=1, dp=1,
                                  trainable=True, max_pp=4)
        assert got == 0 and type(got) is int
        rows = tiny.min_pp_for_llm(*accounting(LLAMA3_70B),
                                   tp=np.array([1]), dp=np.array([1]),
                                   trainable=True, max_pp=4)
        assert rows.tolist() == [0]


class TestOnePath:
    """Array calls are the scalar arithmetic, elementwise."""

    @pytest.mark.parametrize("module", [LLAMA3_7B, LLAMA3_70B])
    @pytest.mark.parametrize("trainable", [True, False])
    def test_array_fits_equals_scalar_calls(self, module, trainable):
        params, act = accounting(module)
        grid = [
            (tp, pp, dp, min(pp + 2, 12))
            for tp in (1, 2, 4, 8)
            for pp in (1, 2, 5, 10, 40)
            for dp in (1, 3, 16)
        ]
        tps, pps, dps, flights = (np.array(col) for col in zip(*grid))
        got = MEMORY.fits(params, act, tps, pps, dps, trainable, flights)
        static = MEMORY.static_bytes_per_gpu(params, tps, pps, dps,
                                             trainable)
        expected = [
            MEMORY.fits(params, act, tp, pp, dp, trainable, in_flight)
            for tp, pp, dp, in_flight in grid
        ]
        assert got.tolist() == expected
        # Bit for bit, not just the verdicts.
        assert [float(v) for v in static] == [
            MEMORY.static_bytes_per_gpu(params, tp, pp, dp, trainable)
            for tp, pp, dp, _ in grid
        ]

    @pytest.mark.parametrize("trainable", [True, False])
    def test_min_pp_is_first_fitting_depth(self, trainable):
        module = LLAMA3_70B
        params, act = accounting(module)
        max_pp = module.num_layers

        def first_fitting_depth(tp, dp):
            for pp in range(1, max_pp + 1):
                if MEMORY.fits(params, act, tp, pp, dp, trainable,
                               in_flight=pp):
                    return pp
            return 0

        rows = [
            (tp, dp)
            for tp in (1, 2, 4, 8, 16)
            for dp in (1, 2, 4, 8, 30, 240)
        ]
        expected = [first_fitting_depth(tp, dp) for tp, dp in rows]
        assert 0 in expected and max(expected) > 1
        tps, dps = (np.array(col) for col in zip(*rows))
        got = MEMORY.min_pp_for_llm(params, act, tps, dps, trainable,
                                    max_pp=max_pp)
        assert got.tolist() == expected
        assert [
            MEMORY.min_pp_for_llm(params, act, tp, dp, trainable,
                                  max_pp=max_pp)
            for tp, dp in rows
        ] == expected
