"""Canonical config serialization and the config content hash.

The hash keys every cache that must notice a task change: the
orchestration plan cache (:mod:`repro.orchestration.plancache`), the
fleet's per-job state cache, and the campaign result cache
(:mod:`repro.experiments`). It lives here, beside the config it hashes,
so those layers read it from below rather than from each other.
"""

from __future__ import annotations

import dataclasses
import enum
import hashlib
import json
from typing import Any, Dict, Tuple

from repro.core.config import DistTrainConfig

#: Hex digits kept from the sha256 digest. 20 hex chars = 80 bits,
#: collision-safe for any campaign size this repo will ever run.
HASH_LENGTH = 20


def canonical_value(obj: Any) -> Any:
    """Reduce a config object to JSON-safe primitives, deterministically.

    Dataclasses become ``{field: value}`` dicts, enums their ``value``,
    tuples become lists. Key order is normalized by the JSON encoder.
    """
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return {
            f.name: canonical_value(getattr(obj, f.name))
            for f in dataclasses.fields(obj)
        }
    if isinstance(obj, enum.Enum):
        return canonical_value(obj.value)
    if isinstance(obj, (list, tuple)):
        return [canonical_value(item) for item in obj]
    if isinstance(obj, dict):
        return {str(key): canonical_value(value) for key, value in obj.items()}
    if obj is None or isinstance(obj, (bool, int, str)):
        return obj
    if isinstance(obj, float):
        # repr round-trips exactly in python 3; json.dumps uses repr too.
        return obj
    raise TypeError(
        f"cannot canonicalize {type(obj).__name__!r} for config hashing"
    )


def canonical_json(obj: Any) -> str:
    """The canonical serialization: sorted keys, no whitespace."""
    return json.dumps(
        canonical_value(obj), sort_keys=True, separators=(",", ":")
    )


#: Most recently hashed configs: ``id(config) -> (config, hash)``. The
#: entry holds the config itself, so its ``id`` cannot be reused by
#: another object while the entry lives; the identity check on lookup
#: is belt and braces. Bounded FIFO — a fleet hashes a handful of
#: distinct task configs thousands of times.
_HASH_MEMO: Dict[int, Tuple[DistTrainConfig, str]] = {}
_HASH_MEMO_SIZE = 256


def config_hash(config: DistTrainConfig) -> str:
    """Stable content hash of a fully materialized config.

    Two configs hash equal iff every field (including nested model,
    cluster, frozen, and data-distribution specs) is equal — so a cache
    keyed by this hash is invalidated exactly when the task changes.
    The hash is independent of process, platform, and dict ordering.

    Configs are frozen, so each :class:`DistTrainConfig` object is
    hashed once and its hash memoized by identity.
    """
    memoizable = isinstance(config, DistTrainConfig)
    if memoizable:
        hit = _HASH_MEMO.get(id(config))
        if hit is not None and hit[0] is config:
            return hit[1]
    digest = hashlib.sha256(canonical_json(config).encode("utf-8"))
    value = digest.hexdigest()[:HASH_LENGTH]
    if memoizable:
        if len(_HASH_MEMO) >= _HASH_MEMO_SIZE:
            del _HASH_MEMO[next(iter(_HASH_MEMO))]
        _HASH_MEMO[id(config)] = (config, value)
    return value
