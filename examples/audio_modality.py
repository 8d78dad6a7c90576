"""Audio as an additional modality (Table 1: BEATs, AudioLDM).

The audio encoder and generator implement ModuleSpec, so the cost
models price them on audio workloads, and Algorithm 1 balances the audio
tokens a sample carries. The profiler, the MLLM composition, the
orchestration and the iteration simulator build image workloads only
(MultimodalLLMSpec rejects an audio encoder or generator). This example
prices a BEATs audio encoder and an AudioLDM generator, generates a
mixed image+audio data stream, and shows that Algorithm 1 balances
audio-induced stragglers exactly like image-induced ones.

Run:  python examples/audio_modality.py
"""

import numpy as np

from repro.cluster.node import AMPERE_NODE
from repro.core.reports import format_table
from repro.data.distributions import DataDistributionConfig
from repro.data.synthetic import SyntheticMultimodalDataset
from repro.models.audio import AUDIO_LDM, BEATS_BASE
from repro.models.base import ModuleWorkload
from repro.reordering.intra import intra_reorder, reordered_makespan
from repro.timing.costmodel import ModuleCostModel


def module_costs() -> None:
    enc_cost = ModuleCostModel(BEATS_BASE, AMPERE_NODE)
    gen_cost = ModuleCostModel(AUDIO_LDM, AMPERE_NODE)
    rows = []
    for seconds in (5, 10, 30):
        tokens = BEATS_BASE.tokens_for_duration(seconds)
        w = ModuleWorkload(samples=1, audio_tokens=tokens, audio_clips=1)
        rows.append([
            f"{seconds}s clip ({tokens} tokens)",
            f"{enc_cost.forward_time(w, tp=1) * 1e3:.1f} ms",
            f"{gen_cost.forward_time(w, tp=1) * 1e3:.1f} ms",
        ])
    print(format_table(
        ["clip", "BEATs encode", "AudioLDM generate (1 step)"],
        rows,
        title=f"Audio module costs on one A100 "
              f"(BEATs {BEATS_BASE.param_count() / 1e6:.0f}M, "
              f"AudioLDM {AUDIO_LDM.param_count() / 1e6:.0f}M):",
    ))
    print()


def mixed_stream_straggler_demo() -> None:
    config = DataDistributionConfig(audio_fraction=0.5)
    dataset = SyntheticMultimodalDataset(seed=21, config=config)
    batch = dataset.take(64)
    with_audio = sum(1 for s in batch if s.audio_tokens > 0)
    dp = 8
    naive = reordered_makespan(batch, dp)
    balanced = reordered_makespan(intra_reorder(batch, dp), dp)
    ideal = sum(s.size for s in batch) / dp
    print(format_table(
        ["metric", "value"],
        [
            ["samples with audio", f"{with_audio}/64"],
            ["mean audio tokens/sample",
             f"{np.mean([s.audio_tokens for s in batch]):.0f}"],
            ["straggler load, arrival order", f"{naive / ideal:.3f}x ideal"],
            ["straggler load, Algorithm 1", f"{balanced / ideal:.3f}x ideal"],
        ],
        title="Mixed image+audio stream across 8 DP groups:",
    ))
    print("\nAlgorithm 1 sorts on the sample's total modality tokens "
          "(image + audio), so audio heterogeneity is balanced for free.")


def main() -> None:
    module_costs()
    mixed_stream_straggler_demo()


if __name__ == "__main__":
    main()
