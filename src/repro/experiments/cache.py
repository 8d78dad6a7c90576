"""Content-addressed on-disk result store.

Each completed trial is stored as one JSON file named by its config hash
(see :func:`repro.core.canonical.config_hash`), so a campaign re-run
only executes trials whose configuration actually changed. One file per
trial keeps concurrent writers (parallel campaigns sharing a cache
directory) from contending on a single index file, and writes are
atomic (temp file + rename) so a killed run never leaves a torn entry.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Union

from repro.obs import instrument as obs

#: Bump when the record layout changes; older entries read as misses.
#: v2 added the per-record content checksum.
CACHE_VERSION = 2

#: Hex digits kept from the record checksum (64 bits: plenty to catch
#: torn writes and bit rot, which is all it guards against).
CHECKSUM_LENGTH = 16


def record_checksum(record: Dict) -> str:
    """Content checksum of a record (excluding the checksum field)."""
    payload = {
        key: value for key, value in record.items() if key != "checksum"
    }
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()[:CHECKSUM_LENGTH]


class ResultCache:
    """A directory of ``<config-hash>.json`` trial records."""

    def __init__(self, root: Union[str, Path]) -> None:
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)

    @staticmethod
    def is_key(key: str) -> bool:
        return bool(key) and all(ch in "0123456789abcdef" for ch in key)

    def path_for(self, key: str) -> Path:
        if not self.is_key(key):
            raise ValueError(f"malformed cache key {key!r}")
        return self.root / f"{key}.json"

    # ------------------------------------------------------------------ #
    # Read side
    # ------------------------------------------------------------------ #
    def get(self, key: str) -> Optional[Dict]:
        """The stored record for ``key``, or None on miss.

        Version-mismatched entries (older layouts) count as plain
        misses: the trial re-executes and overwrites them. Torn,
        undecodable, or checksum-mismatched entries are *corrupt*: they
        are quarantined to ``<key>.json.corrupt`` (preserving the
        evidence instead of silently overwriting it), counted under
        ``cache.results.corrupt``, and then treated as misses.
        """
        path = self.path_for(key)
        try:
            raw = path.read_bytes()
        except FileNotFoundError:
            obs.count("cache.results.misses")
            return None
        except OSError:
            # Unreadable but present (permissions, I/O error): a miss,
            # never a crash — and nothing to safely quarantine.
            obs.count("cache.results.misses")
            return None
        try:
            record = json.loads(raw.decode("utf-8"))
        except (ValueError, UnicodeDecodeError):
            # ValueError covers JSONDecodeError; UnicodeDecodeError (a
            # ValueError subclass) is listed for clarity.
            self._quarantine(key, path, "undecodable")
            return None
        if not isinstance(record, dict):
            self._quarantine(key, path, "not a record")
            return None
        if record.get("cache_version") != CACHE_VERSION:
            obs.count("cache.results.misses")
            return None
        stored = record.get("checksum")
        if stored != record_checksum(record):
            self._quarantine(key, path, "checksum mismatch")
            return None
        obs.count("cache.results.hits")
        return record

    def _quarantine(self, key: str, path: Path, reason: str) -> None:
        """Move a corrupt entry aside as ``<key>.json.corrupt``."""
        obs.count("cache.results.corrupt")
        obs.count("cache.results.misses")
        obs.event("cache.quarantine", key=key, reason=reason)
        try:
            os.replace(path, f"{path}.corrupt")
        except OSError:
            pass  # racing reader already moved (or removed) it

    def __contains__(self, key: str) -> bool:
        return self.get(key) is not None

    def keys(self) -> List[str]:
        """Keys of stored entries; stray non-key ``*.json`` files (e.g. a
        sweep export written into the cache dir) are ignored."""
        return sorted(
            path.stem
            for path in self.root.glob("*.json")
            if self.is_key(path.stem)
        )

    def __len__(self) -> int:
        return len(self.keys())

    def __iter__(self) -> Iterator[Dict]:
        for key in self.keys():
            record = self.get(key)
            if record is not None:
                yield record

    def load_all(self) -> List[Dict]:
        """Every valid record in the cache, ordered by key."""
        return list(self)

    # ------------------------------------------------------------------ #
    # Write side
    # ------------------------------------------------------------------ #
    def put(self, key: str, record: Dict) -> Path:
        """Atomically store ``record`` under ``key``."""
        obs.count("cache.results.stores")
        path = self.path_for(key)
        payload = dict(record)
        payload["cache_version"] = CACHE_VERSION
        payload["checksum"] = record_checksum(payload)
        fd, tmp_name = tempfile.mkstemp(
            dir=self.root, prefix=f".{key}.", suffix=".tmp"
        )
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as handle:
                json.dump(payload, handle, sort_keys=True, indent=1)
            os.replace(tmp_name, path)
        except BaseException:
            try:
                os.unlink(tmp_name)
            except OSError:
                pass
            raise
        return path

    def discard(self, key: str) -> bool:
        """Remove one entry; True if it existed."""
        try:
            self.path_for(key).unlink()
            return True
        except OSError:
            return False

    def clear(self) -> int:
        """Remove every entry; returns how many were deleted.

        Only key-named files are touched — stray files in the cache
        directory (which :meth:`keys` ignores) are left alone.
        """
        removed = 0
        for path in self.root.glob("*.json"):
            if not self.is_key(path.stem):
                continue
            try:
                path.unlink()
                removed += 1
            except OSError:
                pass
        return removed
