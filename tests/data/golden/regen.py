"""Regenerate (or check) the golden data-stream fixture.

Run after an *intentional* change to what the synthetic dataset draws::

    PYTHONPATH=src python -m tests.data.golden.regen

or verify that the fixture on disk matches what the current code
produces, byte for byte (the CI replay-smoke step)::

    PYTHONPATH=src python -m tests.data.golden.regen --check

``stream.json`` has one row per ``SyntheticMultimodalDataset.take``
call, over:

* seeds 0-2, ``seq_len`` 1, 64, 4,096 and 8,192 (1 and 64 force
  truncated subsequences and exactly-full sequences), and the call
  sizes (1), (5, 3, 17) and (100, 100) on one dataset;
* one ``take(1920)`` and one ``take(256)`` on fresh datasets at seeds 0
  and 1 (paper-sweep's global batch and profile draw);
* at seeds 0 and 1, ``take(40000)`` then ``take(300)`` at ``seq_len``
  64, and ``take(2500)`` then ``take(700)`` at ``seq_len`` 4,096: each
  first call packs over 512 documents (800-870 and 1,030-1,050), more
  than one chunk of a draw that works 512 documents at a time at most,
  and the second call starts from where the first left the generator.

Every call draws from the default LAION-400M-like config, which the
``laion/`` prefix of each case id names.

Each row pins the sample count, the first and last sample id, the
dataset's next sample id after the call, a sha256 over every sample's
id and each subsequence's modality, tokens, raw bytes and pixels, and a
sha256 of the bit generator's state. One row per line, so a unified diff
names exactly the calls that moved.
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path
from typing import Any, Dict, List, Sequence, Tuple

from repro.data.sample import TrainingSample
from repro.data.synthetic import SyntheticMultimodalDataset

from tests.scenarios.golden.regen import fixture_text, sync_fixtures

GOLDEN_DIR = Path(__file__).resolve().parent
FIXTURE = GOLDEN_DIR / "stream.json"

SEEDS = (0, 1, 2)
SEQ_LENS = (1, 64, 4096, 8192)
CALL_SIZES = ((1,), (5, 3, 17), (100, 100))
#: (seed, call sizes) at ``seq_len`` 8,192.
LARGE_CALLS = (
    (0, (1920,)),
    (0, (256,)),
    (1, (1920,)),
    (1, (256,)),
)
#: (seed, seq_len, call sizes) whose first call draws several chunks of
#: documents.
CHUNKED_CALLS = (
    (0, 64, (40000, 300)),
    (1, 64, (40000, 300)),
    (0, 4096, (2500, 700)),
    (1, 4096, (2500, 700)),
)


def cases() -> List[Tuple[str, int, int, Sequence[int]]]:
    """(case id, seed, seq_len, call sizes)."""
    grid = [
        (seed, seq_len, sizes)
        for seed in SEEDS
        for seq_len in SEQ_LENS
        for sizes in CALL_SIZES
    ]
    grid += [(seed, 8192, sizes) for seed, sizes in LARGE_CALLS]
    grid += list(CHUNKED_CALLS)
    return [
        (f"laion/seed{seed}/seq{seq_len}/take{'+'.join(map(str, sizes))}",
         seed, seq_len, sizes)
        for seed, seq_len, sizes in grid
    ]


def samples_digest(samples: Sequence[TrainingSample]) -> str:
    lines = []
    for sample in samples:
        spans = ";".join(
            f"{s.modality},{s.tokens},{s.raw_bytes},{s.pixels}"
            for s in sample.subsequences
        )
        lines.append(f"{sample.sample_id}:{spans}")
    text = "\n".join(lines)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def rng_digest(dataset: SyntheticMultimodalDataset) -> str:
    state = json.dumps(dataset._rng.bit_generator.state, sort_keys=True)
    return hashlib.sha256(state.encode("utf-8")).hexdigest()


def case_rows(
    case_id: str, seed: int, seq_len: int, sizes: Sequence[int]
) -> List[Dict[str, Any]]:
    dataset = SyntheticMultimodalDataset(seq_len=seq_len, seed=seed)
    out = []
    for call, size in enumerate(sizes):
        samples = dataset.take(size)
        out.append({
            "case": f"{case_id}/call{call}",
            "samples": len(samples),
            "first_id": samples[0].sample_id,
            "last_id": samples[-1].sample_id,
            "next_id": dataset._next_sample_id,
            "samples_sha256": samples_digest(samples),
            "rng_sha256": rng_digest(dataset),
        })
    return out


def rows() -> List[Dict[str, Any]]:
    return [row for case in cases() for row in case_rows(*case)]


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    return sync_fixtures(
        [(FIXTURE, fixture_text(rows()))],
        "--check" in argv,
        "tests.data.golden.regen",
    )


if __name__ == "__main__":
    raise SystemExit(main())
