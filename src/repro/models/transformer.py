"""Shared transformer arithmetic.

Both the LLM backbone (decoder) and the ViT encoder are stacks of
transformer layers; this module centralizes the closed-form parameter,
FLOP, and activation-memory formulas so the two specs stay consistent.

Conventions:

* one multiply-accumulate = 2 FLOPs;
* grouped-query attention (GQA) shrinks the K/V projections by
  ``num_query_groups / num_heads`` (Table 2's "# of Groups" column);
* gated MLPs (SwiGLU, used by Llama3) have three weight matrices of shape
  ``hidden x ffn_hidden``; plain MLPs (GELU, used by ViT) have two.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class TransformerConfig:
    """Architecture hyper-parameters of a transformer stack.

    Attributes:
        num_layers: Transformer layer count.
        hidden_size: Model width.
        ffn_hidden_size: MLP inner width.
        num_heads: Attention heads.
        num_query_groups: K/V head groups for GQA (== num_heads when GQA is
            off, e.g. Llama3-7B/13B in Table 2).
        vocab_size: Vocabulary size (0 when the stack has no embedding /
            LM head, e.g. inside the ViT).
        gated_mlp: Three-matrix gated MLP (SwiGLU) vs two-matrix MLP.
        causal: Causal attention halves the effective score matrix work.
        tied_embeddings: Share input embedding and LM head weights.
        activation_bytes_per_token_factor: Stored activation bytes per
            token per layer, in units of ``hidden_size``. 34 is the
            Megatron estimate with FlashAttention (no recomputation);
            modules trained with full activation recomputation (the
            standard for ViT encoders inside MLLMs) keep only layer
            boundaries, ~8.
    """

    num_layers: int
    hidden_size: int
    ffn_hidden_size: int
    num_heads: int
    num_query_groups: int = 0
    vocab_size: int = 0
    gated_mlp: bool = True
    causal: bool = True
    tied_embeddings: bool = False
    activation_bytes_per_token_factor: float = 34.0

    def __post_init__(self) -> None:
        if self.num_layers <= 0 or self.hidden_size <= 0:
            raise ValueError("num_layers and hidden_size must be positive")
        if self.hidden_size % self.num_heads != 0:
            raise ValueError(
                f"hidden_size={self.hidden_size} not divisible by "
                f"num_heads={self.num_heads}"
            )
        groups = self.num_query_groups or self.num_heads
        if self.num_heads % groups != 0:
            raise ValueError(
                f"num_heads={self.num_heads} not divisible by "
                f"num_query_groups={groups}"
            )
        # The config is frozen, so its per-layer GEMM FLOPs are fixed:
        # derive them once here, not on every FLOP call. Not a field,
        # so equality and config hashes never see it.
        object.__setattr__(
            self,
            "_matmul_flops_per_token_per_layer",
            2.0 * (
                self.attention_params_per_layer() + self.mlp_params_per_layer()
            ),
        )

    @property
    def groups(self) -> int:
        """Effective K/V group count."""
        return self.num_query_groups or self.num_heads

    @property
    def head_dim(self) -> int:
        return self.hidden_size // self.num_heads

    @property
    def kv_hidden_size(self) -> int:
        """Width of the K and V projections under GQA."""
        return self.groups * self.head_dim

    # ------------------------------------------------------------------ #
    # Parameters
    # ------------------------------------------------------------------ #
    def attention_params_per_layer(self) -> int:
        """Q, K, V, and output projection weights of one layer."""
        h = self.hidden_size
        q_and_out = 2 * h * h
        k_and_v = 2 * h * self.kv_hidden_size
        return q_and_out + k_and_v

    def mlp_params_per_layer(self) -> int:
        matrices = 3 if self.gated_mlp else 2
        return matrices * self.hidden_size * self.ffn_hidden_size

    def norm_params_per_layer(self) -> int:
        """Two RMSNorm/LayerNorm weight vectors per layer."""
        return 2 * self.hidden_size

    def params_per_layer(self) -> int:
        return (
            self.attention_params_per_layer()
            + self.mlp_params_per_layer()
            + self.norm_params_per_layer()
        )

    def embedding_params(self) -> int:
        """Input embedding plus (untied) LM head."""
        if self.vocab_size == 0:
            return 0
        table = self.vocab_size * self.hidden_size
        return table if self.tied_embeddings else 2 * table

    def total_params(self) -> int:
        return self.num_layers * self.params_per_layer() + self.embedding_params()

    # ------------------------------------------------------------------ #
    # FLOPs
    # ------------------------------------------------------------------ #
    def matmul_flops_per_token_per_layer(self) -> float:
        """GEMM FLOPs per token in one layer (projections + MLP)."""
        return self._matmul_flops_per_token_per_layer

    def attention_score_flops_per_token_per_layer(self, seq_len: int) -> float:
        """Score-matrix FLOPs (QK^T and attention-weighted V) per token."""
        if seq_len < 0:
            raise ValueError("seq_len must be non-negative")
        return self.attention_score_flops(seq_len)

    def attention_score_flops(self, seq_len):
        """:meth:`attention_score_flops_per_token_per_layer` without its
        check: one body for an ``int`` or an int64 array of lengths."""
        flops = 2.0 * 2.0 * seq_len * self.hidden_size
        if self.causal:
            flops /= 2.0
        return flops

    def forward_flops_per_token(self, seq_len: int) -> float:
        """Forward FLOPs for one token inside a ``seq_len`` sequence."""
        per_layer = self.matmul_flops_per_token_per_layer()
        per_layer += self.attention_score_flops_per_token_per_layer(seq_len)
        total = self.num_layers * per_layer
        if self.vocab_size:
            total += 2.0 * self.hidden_size * self.vocab_size  # LM head
        return total

    def forward_flops(self, tokens: int, seq_len: int) -> float:
        """Forward FLOPs for ``tokens`` tokens in ``seq_len`` sequences."""
        return tokens * self.forward_flops_per_token(seq_len)

    # ------------------------------------------------------------------ #
    # Activation memory
    # ------------------------------------------------------------------ #
    def activation_bytes_per_token_per_layer(self, seq_len: int) -> float:
        """bf16 activation bytes one token pins in one layer.

        Uses the Megatron-style estimate ``s*b*h*(34 + 5*a*s/h)`` per
        layer, expressed per token, assuming FlashAttention-style
        recomputation removes the quadratic score matrix term (so the
        ``5*a*s/h`` term is dropped and a small constant is kept for the
        softmax statistics).
        """
        del seq_len  # quadratic term recomputed, not stored
        return self.activation_bytes_per_token_factor * self.hidden_size

    def activation_bytes(self, tokens: int, seq_len: int) -> float:
        per_layer = self.activation_bytes_per_token_per_layer(seq_len)
        return tokens * per_layer * self.num_layers
