"""Process-wide cache of orchestration plans.

Elastic scenarios oscillate between the same few cluster sizes
(fail -> shrink -> repair -> re-grow -> fail again), campaign sweeps
re-plan identical tasks across trials, and co-tenant fleet jobs running
the same task replan the same slice sizes as the scheduler reshapes the
fleet. The orchestration search is a pure function of the task
configuration and the cluster size, so every distinct
``(problem signature, num_gpus)`` pair needs to be solved exactly once
per process; everything after that is a dictionary lookup.

Every key has exactly one compute, :func:`repro.core.api._replan_uncached`
— a cold search that reads nothing else from the cache — so an entry is
the same value whichever caller (``core.api.replan``, a scenario, a
fleet job) fills it first.

The cache is a plain :class:`repro.core.keyedcache.KeyedCache`, the
store the profile and profiler caches use too: explicit FIFO eviction
and process-wide hit/miss counters. The plan hit/miss counts a
:class:`~repro.scenarios.result.ScenarioResult` reports (and a fleet
aggregates per job, and ``repro scenario run`` / ``repro fleet run``
print) are not read from here: the job simulator counts them against
the signatures the current run has solved, so they depend on the run
alone, not on what the process planned before it.

Failed plans (e.g. a shrunken cluster too small for the model) are *not*
cached; exceptions propagate to the caller unrecorded so a transiently
infeasible size is re-checked the next time it appears.
"""

from __future__ import annotations

from typing import Tuple

from repro.core.keyedcache import KeyedCache

#: Default capacity — far above the handful of cluster sizes a failure
#: trace visits, but bounded so long sweeps cannot grow without limit.
PLAN_CACHE_SIZE = 128

#: The process-wide instance ``core.api.replan``, the scenario engine,
#: and the fleet engine share.
PLAN_CACHE = KeyedCache(maxsize=PLAN_CACHE_SIZE, name="plan")


def planning_signature(config, num_gpus: int) -> Tuple[str, int]:
    """Canonical cache key for one (task, cluster size) planning call.

    The task component is the campaign engine's content hash of the
    fully materialized config — invalidated exactly when any field of
    the task changes — and the cluster size rides alongside so elastic
    re-plans of the same task land on distinct entries.
    """
    from repro.experiments.spec import config_hash

    return (config_hash(config), int(num_gpus))
