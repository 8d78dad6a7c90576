"""Regenerate (or check) the golden reordering fixture.

Run after an *intentional* change to what either data reordering
returns::

    PYTHONPATH=src python -m tests.reordering.golden.regen

or verify that the fixture on disk matches what the current code
produces, byte for byte (the CI replay-smoke step)::

    PYTHONPATH=src python -m tests.reordering.golden.regen --check

The benchmark digests see both reorderings (section 5) only through
makespans, so ``orders.json`` pins the orders themselves:

* ``TrainingIterationSimulator.prepare`` on paper-sweep's three
  DistTrain trials (MLLM-9B/15B/72B on 1,296 GPUs, global batch 1,920)
  at data seeds 0 and 1, and on the fleets' job config (MLLM-9B, global
  batch 16) at 16, 32 and 48 GPUs (1 DP rank x 16 microbatches, 2 x 8
  and 4 x 4) over the four batches a fleet job prepares per size. Each
  case has one row with its shape and a sha256 of Algorithm 1's
  sample-id sequence, and one row per simulated rank with that rank's
  Algorithm 2 order.
* ``reorder_ranks`` on seeded cost models whose first stage-0 gap lies
  in the drain or nowhere (a forward-heavy first stage, and a first
  stage heavy both ways), and at vpp = 2. One row per rank.

One row per line, so a unified diff names exactly the orders that moved.
"""

from __future__ import annotations

import hashlib
import sys
from pathlib import Path
from typing import Any, Dict, List

import numpy as np

from repro.cluster.cluster import resized_cluster
from repro.core.api import build_simulator, replan, sample_batches
from repro.core.config import DistTrainConfig
from repro.reordering.inter import MicrobatchCostModel, reorder_ranks
from repro.reordering.intra import intra_reorder
from repro.scenarios import ScenarioSpec

from tests.scenarios.golden.regen import fixture_text, sync_fixtures

GOLDEN_DIR = Path(__file__).resolve().parent
FIXTURE = GOLDEN_DIR / "orders.json"

PAPER_MODELS = ("mllm-9b", "mllm-15b", "mllm-72b")
PAPER_SEEDS = (0, 1)
FLEET_GPUS = (16, 32, 48)
#: (style, l, p, vpp, comms): one ``reorder_ranks`` call per style, one
#: seeded rank per comm.
COST_CASES = (
    ("fwd-heavy", 16, 4, 1, (0.0, 0.3, 2.0)),
    ("stage0-heavy", 12, 5, 1, (0.0, 0.3, 2.0)),
    ("vpp2", 12, 3, 2, (0.0, 0.05, 0.4)),
)


def _sha256(values) -> str:
    text = ",".join(map(str, values))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def prepared_rows(case: str, simulator, batch) -> List[Dict[str, Any]]:
    """The case row and one row per simulated rank."""
    plan = simulator.plan.plans["llm"]
    prepared = simulator.prepare(batch)
    ordered = intra_reorder(list(batch), plan.dp)
    out = [{
        "case": case,
        "dp": plan.dp,
        "vpp": plan.vpp,
        "stages": prepared.rank_work[0][0].shape[1],
        "microbatches": prepared.num_microbatches,
        "intra_sha256": _sha256(s.sample_id for s in ordered),
    }]
    for rank, (_, _, order, _) in zip(
        prepared.simulated_ranks, prepared.rank_work
    ):
        out.append({"case": f"{case}/rank{rank}", "order": list(order)})
    return out


def paper_rows() -> List[Dict[str, Any]]:
    out = []
    for seed in PAPER_SEEDS:
        for model in PAPER_MODELS:
            config = DistTrainConfig.preset(
                model, 1296, 1920, system="disttrain", data_seed=seed
            )
            out += prepared_rows(
                f"paper/{model}/seed{seed}",
                build_simulator(config),
                sample_batches(config)[0],
            )
    return out


def fleet_rows() -> List[Dict[str, Any]]:
    config = DistTrainConfig.preset("mllm-9b", 48, 16)
    batches = sample_batches(config, ScenarioSpec().sample_iterations)
    out = []
    for gpus in FLEET_GPUS:
        sized = config.with_(cluster=resized_cluster(config.cluster, gpus))
        simulator = build_simulator(sized, replan(config, gpus))
        for i, batch in enumerate(batches):
            out += prepared_rows(
                f"fleet/gpus{gpus}/batch{i}", simulator, batch
            )
    return out


def cost_model(style: str, seed: int, l: int, p: int, comm: float):
    rng = np.random.default_rng(seed)
    fwd = rng.uniform(0.1, 1.0, (l, p))
    bwd = rng.uniform(0.2, 2.0, (l, p))
    if style != "vpp2":
        fwd[:, 0] *= 20.0
    if style == "stage0-heavy":
        bwd[:, 0] *= 20.0
    return MicrobatchCostModel(fwd, bwd, comm)


def cost_rows() -> List[Dict[str, Any]]:
    out = []
    for style, l, p, vpp, comms in COST_CASES:
        costs = [
            cost_model(style, seed, l, p, comm)
            for seed, comm in enumerate(comms)
        ]
        for seed, order in enumerate(reorder_ranks(costs, vpp)):
            out.append({"case": f"costs/{style}/rank{seed}", "order": order})
    return out


def rows() -> List[Dict[str, Any]]:
    return paper_rows() + fleet_rows() + cost_rows()


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    return sync_fixtures(
        [(FIXTURE, fixture_text(rows()))],
        "--check" in argv,
        "tests.reordering.golden.regen",
    )


if __name__ == "__main__":
    raise SystemExit(main())
