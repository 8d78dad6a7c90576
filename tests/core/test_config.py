"""DistTrainConfig tests."""

import pytest

from repro.core.config import DistTrainConfig


class TestPreset:
    def test_basic(self):
        config = DistTrainConfig.preset("mllm-9b", 48, 64)
        assert config.mllm.name == "mllm-9b"
        assert config.cluster.num_gpus == 48
        assert config.system == "disttrain"

    def test_unknown_model(self):
        with pytest.raises(KeyError):
            DistTrainConfig.preset("mllm-1t", 48, 64)

    def test_unknown_frozen(self):
        with pytest.raises(KeyError):
            DistTrainConfig.preset("mllm-9b", 48, 64, frozen="half")

    def test_frozen_preset_applied(self):
        config = DistTrainConfig.preset("mllm-9b", 48, 64,
                                        frozen="llm-only")
        assert config.frozen.train_llm
        assert not config.frozen.train_encoder

    def test_unknown_system(self):
        with pytest.raises(ValueError):
            DistTrainConfig.preset("mllm-9b", 48, 64, system="horovod")

    def test_batch_divisibility(self):
        with pytest.raises(ValueError):
            DistTrainConfig.preset("mllm-9b", 48, 65, microbatch_size=2)

    @pytest.mark.parametrize("field, value", [
        ("global_batch_size", 0),
        ("global_batch_size", -32),
        ("microbatch_size", 0),
        ("microbatch_size", -1),
        ("vpp", 0),
        ("num_iterations", 0),
        ("num_iterations", -2),
    ])
    def test_task_sizes_below_one_rejected(self, field, value):
        config = DistTrainConfig.preset("mllm-9b", 48, 32)
        with pytest.raises(ValueError, match=f"{field} must be >= 1"):
            config.with_(**{field: value})

    def test_negative_data_seed_rejected(self):
        config = DistTrainConfig.preset("mllm-9b", 48, 32)
        with pytest.raises(ValueError, match="data_seed must be >= 0"):
            config.with_(data_seed=-1)

    @pytest.mark.parametrize("field, value", [
        ("global_batch_size", 16.0),
        ("global_batch_size", True),
        ("microbatch_size", 1.0),
        ("vpp", True),
        ("data_seed", 1.5),
        ("data_seed", True),
        ("num_iterations", 2.5),
        ("intra_reordering", "no"),
        ("inter_reordering", 1),
        ("mllm", "mllm-9b"),
        ("cluster", 48),
        ("frozen", None),
        ("frozen", "full"),
        ("schedule", "gpipe"),
        ("schedule", None),
        ("data_config", None),
        pytest.param("data_config", {}, id="data_config-dict"),
        ("preprocessing", "bogus"),
        ("preprocessing", 1),
    ])
    def test_mistyped_field_rejected(self, field, value):
        # Unchecked, each fails deep in numpy or a plan, or runs as
        # something else: a one-sample batch, seed 1, a truthy "no", a
        # schedule name or None as 1F1B. A preset name, a GPU count,
        # None or a dict in a class-typed field fails in plan or
        # simulate with an AttributeError or a TypeError, and an unknown
        # preprocessing mode plans and fails only in simulate.
        config = DistTrainConfig.preset("mllm-9b", 48, 32)
        with pytest.raises(ValueError, match=f"^{field} must be"):
            config.with_(**{field: value})

    @pytest.mark.parametrize("model, vpp, layers", [
        ("mllm-9b", 3, 32),
        ("mllm-9b", 5, 32),
        ("mllm-9b", 6, 32),
        ("mllm-9b", 7, 32),
        ("mllm-9b", 33, 32),
        ("mllm-72b", 3, 80),
    ])
    def test_vpp_not_dividing_llm_layers_rejected(self, model, vpp, layers):
        # Unchecked, no pipeline depth fits and the search raises an
        # IndexError.
        config = DistTrainConfig.preset(model, 48, 32)
        with pytest.raises(
            ValueError,
            match=f"^vpp={vpp} does not divide the {layers} LLM layers",
        ):
            config.with_(vpp=vpp)

    @pytest.mark.parametrize("vpp", [1, 2, 4, 8, 16, 32])
    def test_vpp_dividing_llm_layers_accepted(self, vpp):
        config = DistTrainConfig.preset("mllm-9b", 48, 32, vpp=vpp)
        assert config.vpp == vpp


class TestDerivedSettings:
    def test_disttrain_defaults(self):
        config = DistTrainConfig.preset("mllm-9b", 48, 64)
        assert config.effective_intra_reordering
        assert config.effective_inter_reordering
        assert config.effective_preprocessing == "disaggregated"
        assert config.tp_overlap_fraction == 0.9

    def test_megatron_defaults(self):
        config = DistTrainConfig.preset("mllm-9b", 48, 64).with_system(
            "megatron-lm"
        )
        assert not config.effective_intra_reordering
        assert not config.effective_inter_reordering
        assert config.effective_preprocessing == "colocated"
        assert config.tp_overlap_fraction == 0.0

    def test_explicit_overrides_win(self):
        config = DistTrainConfig.preset(
            "mllm-9b", 48, 64, intra_reordering=False, preprocessing="none"
        )
        assert not config.effective_intra_reordering
        assert config.effective_preprocessing == "none"

    def test_with_system_preserves_task(self):
        config = DistTrainConfig.preset("mllm-15b", 96, 64)
        other = config.with_system("distmm*")
        assert other.mllm is config.mllm
        assert other.global_batch_size == config.global_batch_size

    def test_with_updates(self):
        config = DistTrainConfig.preset("mllm-9b", 48, 64).with_(vpp=2)
        assert config.vpp == 2
