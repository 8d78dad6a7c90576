"""One keyed cache for every process-wide memo in the repo.

Every process-wide memo of a pure function of a hashable key is a plain
:class:`KeyedCache` instance — no subclasses: the orchestration plan
cache (``repro.orchestration.plancache``), the data-distribution profile
and global-batch caches (``repro.core.api``), the noise-free profiler
cache (``repro.orchestration.problem``) and the fleet's cluster-state
cache (``repro.fleet.job``).

Semantics, shared by all of them:

* **Explicit and thread-safe** — a lock guards the entry table; hit and
  miss counters count process-wide lookups (the fleet engine reports
  the job-state cache's growth over a run). The per-job plan counters
  on results are tallied per run by the job simulator, not read here.
* **FIFO eviction** — insertion order, not recency. The keyed working
  sets here are tiny (a handful of cluster sizes, model/node pairs); a
  FIFO bound only exists so unbounded sweeps cannot leak.
* **Failures are not cached** — ``compute`` exceptions propagate
  unrecorded, so a transiently infeasible key is re-checked next time.
"""

from __future__ import annotations

import threading
from typing import Any, Callable, Dict, Hashable, Optional, Tuple

from repro.obs import instrument as obs


class KeyedCache:
    """A keyed store with FIFO eviction and hit/miss accounting.

    Args:
        maxsize: FIFO bound on resident entries.
        name: Optional observability name. Named caches publish
            ``cache.<name>.hits`` / ``.misses`` counters and a
            ``cache.<name>.size`` gauge through :mod:`repro.obs` when
            metrics collection is on; the local ``hits``/``misses``
            fields stay byte-identical either way.
    """

    def __init__(self, maxsize: int = 128, name: Optional[str] = None):
        if maxsize < 1:
            raise ValueError("maxsize must be >= 1")
        self.maxsize = maxsize
        self.name = name
        self._entries: Dict[Hashable, Any] = {}
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0

    def __len__(self) -> int:
        return len(self._entries)

    def get_or_compute(
        self, key: Hashable, compute: Callable[[], Any]
    ) -> Any:
        """Return the cached value for ``key``, computing it on a miss."""
        with self._lock:
            if key in self._entries:
                self.hits += 1
                self._observe(hit=True)
                return self._entries[key]
        result = compute()
        with self._lock:
            self.misses += 1
            while len(self._entries) >= self.maxsize:
                self._entries.pop(next(iter(self._entries)))
            self._entries[key] = result
            self._observe(hit=False)
        return result

    def _observe(self, hit: bool) -> None:
        """Publish unified cache metrics (no-op unless named + enabled)."""
        if self.name is None or not obs.enabled():
            return
        obs.count(f"cache.{self.name}.{'hits' if hit else 'misses'}")
        obs.gauge(f"cache.{self.name}.size", len(self._entries))

    def lookup(self, key: Hashable) -> Optional[Any]:
        """Peek without counting or computing."""
        return self._entries.get(key)

    def stats(self) -> Tuple[int, int]:
        """(hits, misses) snapshot."""
        return self.hits, self.misses

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()
            self.hits = 0
            self.misses = 0
