"""Figure 17 — overhead of data preprocessing.

Per-iteration preprocessing time visible to the GPU trainers, with and
without disaggregation, for {8, 16} images x {512^2, 1024^2}. Paper:
disaggregation turns seconds into milliseconds.

Each configuration is one sample of square images, priced through the
``exposed_overhead`` the iteration simulator calls. An unbounded
iteration time gives each mode its steady state: prefetch hides its
full overlap fraction, and the producers never fall behind.
"""

import math

from repro.cluster.node import AMPERE_NODE
from repro.core.reports import format_table
from repro.data.sample import BatchColumns, Subsequence, TrainingSample
from repro.models.mllm import image_tokens_for_resolution
from repro.preprocessing.colocated import CoLocatedPreprocessing
from repro.preprocessing.cost import PreprocessCostModel
from repro.preprocessing.disaggregated import DisaggregatedPreprocessing
from repro.preprocessing.transfer import TransferModel

CONFIGS = [(8, 512), (8, 1024), (16, 512), (16, 1024)]


def compute_figure17():
    cost = PreprocessCostModel()
    # The paper measures with DP=1 on the GPU training side: a single
    # rank's dataloader workers carry all of the preprocessing.
    colocated = CoLocatedPreprocessing(
        node=AMPERE_NODE, cost=cost, dataloader_workers=4
    )
    disaggregated = DisaggregatedPreprocessing(
        cost=cost, transfer=TransferModel(), cpu_nodes=8
    )
    rows = []
    for images, resolution in CONFIGS:
        image = Subsequence(
            "image",
            image_tokens_for_resolution(resolution),
            pixels=resolution * resolution,
        )
        columns = BatchColumns.of([TrainingSample(0, (image,) * images)])
        rows.append(
            (
                f"{images}, {resolution}x{resolution}",
                colocated.exposed_overhead(columns, math.inf),
                disaggregated.exposed_overhead(columns, math.inf),
            )
        )
    return rows


def test_figure17_preprocessing_overhead(benchmark):
    rows = benchmark.pedantic(compute_figure17, rounds=1, iterations=1)
    print()
    print(format_table(
        ["config", "w/o disaggregation", "disaggregated", "reduction"],
        [
            [cfg, f"{colo * 1e3:.0f} ms", f"{dis * 1e3:.2f} ms",
             f"{colo / dis:.0f}x"]
            for cfg, colo, dis in rows
        ],
        title="Figure 17: preprocessing overhead per iteration",
    ))
    for _, colocated, disaggregated in rows:
        # Disaggregated overhead is milliseconds (paper: "reduces
        # preprocessing time from seconds to milliseconds").
        assert disaggregated < 0.05
        assert colocated / disaggregated > 10
    # Heaviest config without disaggregation costs ~seconds.
    assert rows[-1][1] > 0.5
