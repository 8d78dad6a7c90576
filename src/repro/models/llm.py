"""LLM backbone specifications (Table 2 of the paper).

The backbone is a Llama3-style decoder-only transformer. The three
configurations evaluated by the paper are reproduced verbatim from
Table 2:

==============  ========  ======  ==========  =======  ========
Model           # Layers  Hidden  FFN Hidden  # Heads  # Groups
==============  ========  ======  ==========  =======  ========
Llama3-7B       32        4096    11008       32       32
Llama3-13B      40        5120    13824       40       40
Llama3-70B      80        8192    28672       64       8
==============  ========  ======  ==========  =======  ========
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.models.base import ModuleKind, ModuleSpec, ModuleWorkload
from repro.models.transformer import TransformerConfig

LLAMA3_VOCAB_SIZE = 128_256


@dataclass(frozen=True)
class LLMSpec(ModuleSpec):
    """LLM backbone module built from a :class:`TransformerConfig`.

    The backbone always processes full fixed-length sequences
    (``seq_len``, 8192 in the paper), so its per-microbatch compute is
    constant regardless of how text and image tokens are interleaved —
    the property section 2.3 relies on ("all microbatches within the LLM
    have the same computation time").
    """

    name: str = "llm"
    config: TransformerConfig = None  # type: ignore[assignment]
    seq_len: int = 8192

    kind = ModuleKind.BACKBONE

    def __post_init__(self) -> None:
        if self.config is None:
            raise ValueError("LLMSpec requires a TransformerConfig")
        if self.seq_len <= 0:
            raise ValueError("seq_len must be positive")

    # ModuleSpec interface ------------------------------------------------
    def param_count(self) -> int:
        return self.config.total_params()

    def forward_flops(self, workload: ModuleWorkload) -> float:
        tokens = workload.samples * self.seq_len
        return self.config.forward_flops(tokens, self.seq_len)

    def activation_bytes(self, workload: ModuleWorkload) -> float:
        tokens = workload.samples * self.seq_len
        return self.config.activation_bytes(tokens, self.seq_len)

    @property
    def num_layers(self) -> int:
        return self.config.num_layers

    @property
    def hidden_size(self) -> int:
        return self.config.hidden_size

    def boundary_activation_bytes(self, samples: int) -> float:
        """bf16 bytes of the activation tensor crossing a PP boundary."""
        return 2.0 * samples * self.seq_len * self.config.hidden_size


def _llama3(name: str, layers: int, hidden: int, ffn: int, heads: int,
            groups: int, seq_len: int = 8192) -> LLMSpec:
    return LLMSpec(
        name=name,
        config=TransformerConfig(
            num_layers=layers,
            hidden_size=hidden,
            ffn_hidden_size=ffn,
            num_heads=heads,
            num_query_groups=groups,
            vocab_size=LLAMA3_VOCAB_SIZE,
            gated_mlp=True,
            causal=True,
        ),
        seq_len=seq_len,
    )


LLAMA3_7B = _llama3("llama3-7b", 32, 4096, 11008, 32, 32)
LLAMA3_13B = _llama3("llama3-13b", 40, 5120, 13824, 40, 40)
LLAMA3_70B = _llama3("llama3-70b", 80, 8192, 28672, 64, 8)

LLM_PRESETS = {
    "llama3-7b": LLAMA3_7B,
    "llama3-13b": LLAMA3_13B,
    "llama3-70b": LLAMA3_70B,
}
