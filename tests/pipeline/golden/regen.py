"""Regenerate (or check) the golden pipeline-trace fixtures.

Run after an *intentional* simulator semantics change::

    PYTHONPATH=src python -m tests.pipeline.golden.regen

or verify that every fixture on disk matches what the current code
produces, byte for byte (the CI replay-smoke step)::

    PYTHONPATH=src python -m tests.pipeline.golden.regen --check

Every fixture captures one canonical schedule evaluated on fixed
duration tables, with all floats serialized as C99 hex strings so the
snapshot comparison is bit-exact. The test module
(:mod:`tests.pipeline.test_golden_traces`) refuses drift: any kernel
change that perturbs a single ULP of any start/end time fails.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import numpy as np

from repro.pipeline.schedules import ScheduleKind
from repro.pipeline.simulator import PipelineSimulator, StageWork

from tests.scenarios.golden.regen import sync_fixtures

GOLDEN_DIR = Path(__file__).resolve().parent


def canonical_cases():
    """(name, kind, p, l, vpp, fwd, bwd, comm) for every fixture."""
    rng = np.random.default_rng(20240715)
    hetero_fwd = rng.uniform(0.2, 2.5, (3, 6))
    hetero_bwd = rng.uniform(0.3, 4.0, (3, 6))
    frozen_bwd = rng.uniform(0.3, 4.0, (3, 5))
    frozen_bwd[rng.uniform(size=(3, 5)) < 0.4] = 0.0
    return [
        (
            "gpipe_uniform",
            ScheduleKind.GPIPE, 3, 4, 1,
            np.full((3, 4), 1.0), np.full((3, 4), 2.0), 0.1,
        ),
        (
            "one_f_one_b_uniform",
            ScheduleKind.ONE_F_ONE_B, 4, 8, 1,
            np.full((4, 8), 1.0), np.full((4, 8), 2.0), 0.05,
        ),
        (
            "interleaved_vpp2",
            ScheduleKind.INTERLEAVED, 2, 4, 2,
            np.full((2, 4), 0.5), np.full((2, 4), 1.0), 0.02,
        ),
        (
            "one_f_one_b_heterogeneous",
            ScheduleKind.ONE_F_ONE_B, 3, 6, 1,
            hetero_fwd, hetero_bwd, 0.07,
        ),
        (
            "one_f_one_b_frozen_backwards",
            ScheduleKind.ONE_F_ONE_B, 3, 5, 1,
            rng.uniform(0.2, 2.5, (3, 5)), frozen_bwd, 0.0,
        ),
    ]


def trace_to_fixture(name, kind, p, l, vpp, fwd, bwd, comm):
    sim = PipelineSimulator(p, l, kind, vpp=vpp)
    trace = sim.run(StageWork.from_tables(fwd, bwd, comm=comm))
    return {
        "name": name,
        "schedule": kind.value,
        "num_stages": p,
        "num_microbatches": l,
        "vpp": vpp,
        "comm": float(comm).hex(),
        "fwd": [[value.hex() for value in row] for row in fwd],
        "bwd": [[value.hex() for value in row] for row in bwd],
        "makespan": trace.makespan.hex(),
        "records": [
            {
                "stage": record.op.stage,
                "microbatch": record.op.microbatch,
                "direction": record.op.direction.value,
                "chunk": record.op.chunk,
                "start": record.start.hex(),
                "end": record.end.hex(),
            }
            for record in trace.records
        ],
    }


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    pairs = [
        (
            GOLDEN_DIR / f"{case[0]}.json",
            json.dumps(trace_to_fixture(*case), indent=1) + "\n",
        )
        for case in canonical_cases()
    ]
    return sync_fixtures(
        pairs, "--check" in argv, "tests.pipeline.golden.regen"
    )


if __name__ == "__main__":
    raise SystemExit(main())
