"""Tests for shared transformer arithmetic."""

import dataclasses

import pytest
from hypothesis import given, strategies as st

from repro.models.transformer import TransformerConfig


def small_config(**kwargs):
    defaults = dict(
        num_layers=2,
        hidden_size=64,
        ffn_hidden_size=256,
        num_heads=4,
        vocab_size=1000,
    )
    defaults.update(kwargs)
    return TransformerConfig(**defaults)


class TestValidation:
    def test_hidden_divisible_by_heads(self):
        with pytest.raises(ValueError):
            small_config(hidden_size=65)

    def test_heads_divisible_by_groups(self):
        with pytest.raises(ValueError):
            small_config(num_query_groups=3)

    def test_positive_layers(self):
        with pytest.raises(ValueError):
            small_config(num_layers=0)


class TestParams:
    def test_attention_params_no_gqa(self):
        cfg = small_config()
        # q, k, v, o each hidden x hidden.
        assert cfg.attention_params_per_layer() == 4 * 64 * 64

    def test_attention_params_with_gqa(self):
        cfg = small_config(num_query_groups=2)
        head_dim = 64 // 4
        kv_hidden = 2 * head_dim
        expected = 2 * 64 * 64 + 2 * 64 * kv_hidden
        assert cfg.attention_params_per_layer() == expected

    def test_gated_mlp_has_three_matrices(self):
        gated = small_config(gated_mlp=True)
        plain = small_config(gated_mlp=False)
        assert gated.mlp_params_per_layer() == 3 * 64 * 256
        assert plain.mlp_params_per_layer() == 2 * 64 * 256

    def test_embedding_untied_doubles(self):
        tied = small_config(tied_embeddings=True)
        untied = small_config(tied_embeddings=False)
        assert untied.embedding_params() == 2 * tied.embedding_params()

    def test_no_vocab_no_embedding(self):
        assert small_config(vocab_size=0).embedding_params() == 0

    def test_total_params_composition(self):
        cfg = small_config()
        expected = (
            cfg.num_layers * cfg.params_per_layer() + cfg.embedding_params()
        )
        assert cfg.total_params() == expected


class TestFlops:
    def test_matmul_flops_track_params(self):
        cfg = small_config()
        per_layer_params = (
            cfg.attention_params_per_layer() + cfg.mlp_params_per_layer()
        )
        assert cfg.matmul_flops_per_token_per_layer() == pytest.approx(
            2.0 * per_layer_params
        )

    def test_matmul_flops_memo_is_not_a_field(self):
        """The per-config constant is derived once at construction, from
        the same expression, and stays out of equality and hashing."""
        cfg = small_config(num_query_groups=2)
        assert cfg.matmul_flops_per_token_per_layer() == 2.0 * (
            cfg.attention_params_per_layer() + cfg.mlp_params_per_layer()
        )
        wider = dataclasses.replace(cfg, ffn_hidden_size=512)
        assert wider.matmul_flops_per_token_per_layer() == 2.0 * (
            wider.attention_params_per_layer() + wider.mlp_params_per_layer()
        )
        assert dataclasses.replace(cfg) == cfg
        assert hash(dataclasses.replace(cfg)) == hash(cfg)

    def test_causal_halves_attention_scores(self):
        causal = small_config(causal=True)
        full = small_config(causal=False)
        s = 1024
        assert causal.attention_score_flops_per_token_per_layer(
            s
        ) == pytest.approx(
            full.attention_score_flops_per_token_per_layer(s) / 2
        )

    def test_forward_flops_linear_in_tokens(self):
        cfg = small_config()
        assert cfg.forward_flops(200, 1024) == pytest.approx(
            2 * cfg.forward_flops(100, 1024)
        )

    def test_lm_head_included_when_vocab_set(self):
        with_head = small_config(vocab_size=1000)
        without = small_config(vocab_size=0)
        diff = with_head.forward_flops_per_token(
            128
        ) - without.forward_flops_per_token(128)
        assert diff == pytest.approx(2.0 * 64 * 1000)

    @given(st.integers(min_value=1, max_value=8192))
    def test_attention_flops_nonnegative(self, seq_len):
        cfg = small_config()
        assert cfg.attention_score_flops_per_token_per_layer(seq_len) >= 0

    def test_negative_seq_rejected(self):
        with pytest.raises(ValueError):
            small_config().attention_score_flops_per_token_per_layer(-1)


class TestActivations:
    def test_activation_bytes_linear_in_tokens(self):
        cfg = small_config()
        assert cfg.activation_bytes(100, 512) == pytest.approx(
            100 * cfg.activation_bytes(1, 512)
        )

    def test_activation_factor_override(self):
        full = small_config(activation_bytes_per_token_factor=34.0)
        recompute = small_config(activation_bytes_per_token_factor=8.0)
        ratio = full.activation_bytes(10, 512) / recompute.activation_bytes(
            10, 512
        )
        assert ratio == pytest.approx(34.0 / 8.0)
