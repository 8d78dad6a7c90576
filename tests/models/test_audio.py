"""Audio modality module tests."""

import pytest

from repro.models.audio import (
    AUDIO_LDM,
    BEATS_BASE,
    BEATS_LARGE,
    AudioLDMSpec,
    BeatsSpec,
)
from repro.models.base import ModuleKind, ModuleWorkload


def audio_workload(clips=2, seconds=10):
    tokens = BEATS_BASE.tokens_for_duration(seconds) * clips
    return ModuleWorkload(samples=1, audio_tokens=tokens, audio_clips=clips)


class TestBeats:
    def test_base_param_count(self):
        # BEATs-base is ~90M parameters.
        assert 80e6 < BEATS_BASE.param_count() < 110e6

    def test_large_bigger(self):
        assert BEATS_LARGE.param_count() > 3 * BEATS_BASE.param_count()

    def test_kind(self):
        assert BEATS_BASE.kind is ModuleKind.ENCODER

    def test_tokens_for_duration(self):
        assert BEATS_BASE.tokens_for_duration(10) == 500
        with pytest.raises(ValueError):
            BEATS_BASE.tokens_for_duration(0)

    def test_zero_audio_zero_flops(self):
        assert BEATS_BASE.forward_flops(ModuleWorkload(samples=1)) == 0.0

    def test_flops_scale_with_tokens(self):
        short = BEATS_BASE.forward_flops(audio_workload(clips=1, seconds=5))
        long = BEATS_BASE.forward_flops(audio_workload(clips=1, seconds=20))
        assert long > 3.5 * short

    def test_requires_config(self):
        with pytest.raises(ValueError):
            BeatsSpec(name="bad", config=None)


class TestAudioLDM:
    def test_smaller_than_sd(self):
        from repro.models.diffusion import STABLE_DIFFUSION_2_1

        assert AUDIO_LDM.param_count() < STABLE_DIFFUSION_2_1.param_count()

    def test_flops_driven_by_audio_tokens(self):
        silent = ModuleWorkload(samples=1)
        speaking = audio_workload()
        assert AUDIO_LDM.forward_flops(silent) == 0.0
        assert AUDIO_LDM.forward_flops(speaking) > 0.0

    def test_flops_linear_in_clips(self):
        one = AUDIO_LDM.forward_flops(audio_workload(clips=1))
        three = AUDIO_LDM.forward_flops(
            ModuleWorkload(
                samples=1,
                audio_tokens=3 * BEATS_BASE.tokens_for_duration(10),
                audio_clips=3,
            )
        )
        assert three == pytest.approx(3 * one, rel=1e-6)


class TestCostModelIntegration:
    def test_audio_encoder_cost(self):
        from repro.cluster.node import AMPERE_NODE
        from repro.timing.costmodel import ModuleCostModel

        cost = ModuleCostModel(BEATS_BASE, AMPERE_NODE)
        t = cost.forward_time(audio_workload(), tp=1)
        assert 0 < t < 0.1  # ~100M model on short clips: milliseconds

    def test_audio_generator_cost(self):
        from repro.cluster.node import AMPERE_NODE
        from repro.timing.costmodel import ModuleCostModel

        cost = ModuleCostModel(AUDIO_LDM, AMPERE_NODE)
        assert cost.forward_time(audio_workload(), tp=1) > 0


class TestMLLMComposition:
    """The MLLM prices image workloads only, so audio modules fail at
    construction instead of deep in the accountant or pricing 0 FLOPs."""

    @pytest.mark.parametrize("encoder, generator, module", [
        (BEATS_BASE, AUDIO_LDM, "encoder 'beats-base'"),
        (BEATS_BASE, None, "encoder 'beats-base'"),
        (None, AUDIO_LDM, "generator 'audioldm'"),
    ])
    def test_audio_module_rejected(self, encoder, generator, module):
        from repro.models.diffusion import STABLE_DIFFUSION_2_1
        from repro.models.llm import LLAMA3_7B
        from repro.models.mllm import MultimodalLLMSpec
        from repro.models.vit import VIT_HUGE

        with pytest.raises(ValueError, match=module):
            MultimodalLLMSpec(
                name="mllm-audio",
                encoder=encoder or VIT_HUGE,
                llm=LLAMA3_7B,
                generator=generator or STABLE_DIFFUSION_2_1,
            )


class TestWorkloadAudioFields:
    def test_add_and_scale(self):
        a = audio_workload(clips=1)
        b = audio_workload(clips=1)
        combined = a + b
        assert combined.audio_clips == 2
        halved = combined.scaled(0.5)
        assert halved.audio_clips == 1

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            ModuleWorkload(audio_tokens=-1)

    def test_negative_images_rejected(self):
        with pytest.raises(ValueError, match="non-negative"):
            ModuleWorkload(images=-1)

    def test_negative_audio_clips_rejected(self):
        with pytest.raises(ValueError, match="non-negative"):
            ModuleWorkload(audio_clips=-2)
