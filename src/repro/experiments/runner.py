"""Campaign execution: supervised parallel trials, caching, durability.

A :class:`CampaignRunner` takes a :class:`~repro.experiments.spec.SweepSpec`,
expands it, skips every trial whose config hash is already in the
:class:`~repro.experiments.cache.ResultCache`, and executes the rest on a
supervised worker fleet (:mod:`repro.experiments.supervisor`): per-trial
wall-clock timeouts, heartbeat-based hung-worker detection, retry of
transient faults on fresh workers, and quarantine of poison trials that
crash workers repeatedly. A trial that raises records a failure row and
the campaign keeps going — one bad configuration never kills a sweep.

Every terminal outcome (ok, failed, timed-out, poisoned) is appended to
a durable campaign journal (:mod:`repro.experiments.journal`) beside the
result cache, so ``repro sweep --resume`` continues an interrupted or
killed campaign where it stopped. SIGINT/SIGTERM drain gracefully: the
runner stops dispatching, reaps workers, and returns a partial
:class:`CampaignResult` with ``interrupted=True``.

Trials execute on the vectorized simulation kernel
(:mod:`repro.pipeline.kernel`): every pipeline shape a trial touches is
compiled once per worker process and reused by all subsequent trials in
that worker — under the preferred ``fork`` start method, shapes already
compiled in the parent are inherited copy-on-write, so sweep grids that
revisit a schedule shape never recompile it.
"""

from __future__ import annotations

import hashlib
import logging
import multiprocessing
import sys
import time
import traceback
from dataclasses import dataclass, field, fields
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.core.api import plan, simulate
from repro.experiments import chaos
from repro.experiments.cache import ResultCache
from repro.experiments.journal import CampaignJournal, campaign_key
from repro.experiments.spec import SweepSpec, TrialSpec, canonical_json
from repro.experiments.supervisor import (
    RetryPolicy,
    SupervisedExecutor,
    SupervisorError,
)
from repro.obs import instrument as obs

logger = logging.getLogger(__name__)

ProgressFn = Callable[[int, int, "TrialRecord"], None]

#: Max lines a stored trial traceback keeps (tail wins: the raising
#: frame is the one worth keeping when a deep stack is trimmed).
TRACEBACK_LINES = 30


@dataclass
class TrialRecord:
    """Outcome of one trial: parameters, identity, and metrics."""

    params: Dict[str, Any]
    config_hash: str
    status: str  # "ok", "failed", "timed-out", or "poisoned"
    metrics: Dict[str, float] = field(default_factory=dict)
    error: str = ""
    traceback: str = ""
    elapsed_seconds: float = 0.0
    cached: bool = False  # runtime-only; not serialized
    resumed: bool = False  # runtime-only; not serialized

    @property
    def ok(self) -> bool:
        return self.status == "ok"

    def to_dict(self) -> Dict[str, Any]:
        """Every field in declaration order but the runtime-only
        ``cached`` and ``resumed``."""
        return {
            f.name: getattr(self, f.name)
            for f in fields(self)
            if f.name not in ("cached", "resumed")
        }

    @classmethod
    def from_dict(
        cls, record: Dict[str, Any], cached: bool = False,
        resumed: bool = False,
    ) -> "TrialRecord":
        return cls(
            params=dict(record.get("params", {})),
            config_hash=str(record.get("config_hash", "")),
            status=str(record.get("status", "failed")),
            metrics=dict(record.get("metrics", {})),
            error=str(record.get("error", "")),
            traceback=str(record.get("traceback", "")),
            elapsed_seconds=float(record.get("elapsed_seconds", 0.0)),
            cached=cached,
            resumed=resumed,
        )

    def label(self) -> str:
        return TrialSpec(self.params).label() if self.params else "<invalid>"


def derive_trial_seed(params: Dict[str, Any]) -> int:
    """A deterministic per-trial seed from the parameter assignment.

    Stable across process restarts and platforms (pure function of the
    canonical parameter serialization), so re-running a campaign replays
    identical data streams.
    """
    digest = hashlib.sha256(canonical_json(params).encode("utf-8")).digest()
    return int.from_bytes(digest[:4], "big") % (2**31)


def trim_traceback(exc: BaseException, limit: int = TRACEBACK_LINES) -> str:
    """The exception's traceback, keeping at most the last ``limit`` lines.

    The tail holds the raising frame and the exception itself — the part
    that makes a failed sweep debuggable after the fact — so trimming
    drops the top of deep stacks, not the bottom.
    """
    lines = "".join(
        traceback.format_exception(type(exc), exc, exc.__traceback__)
    ).rstrip().splitlines()
    if len(lines) > limit:
        dropped = len(lines) - limit
        lines = [f"... ({dropped} lines trimmed) ..."] + lines[-limit:]
    return "\n".join(lines)


# --------------------------------------------------------------------- #
# Worker (top-level so multiprocessing can pickle it)
# --------------------------------------------------------------------- #
def execute_trial(payload: Tuple):
    """Run one (plan, simulate) trial; never raises on trial errors.

    ``payload`` is ``(index, params, key)`` or — from the supervised
    executor — ``(index, params, key, attempt)``. Returns
    ``(index, record_dict)`` where the record carries either the metrics
    or the formatted failure (with a trimmed traceback).
    """
    index, params, key = payload[0], payload[1], payload[2]
    attempt = payload[3] if len(payload) > 3 else 0
    start = time.monotonic()
    try:
        # Test-only fault injection; a no-op in production sweeps.
        chaos.maybe_inject(index, params, attempt)
        trial = TrialSpec(params)
        config = trial.to_config()
        fleet = trial.to_fleet()
        scenario = trial.to_scenario()
        if fleet is not None:
            # Shared-cluster trial: N job simulators contend for the
            # cluster under the trial's scheduling policy, all priced
            # on the batched kernel path with a shared plan cache.
            from repro.fleet import run_fleet

            metrics = run_fleet(fleet).metrics()
        elif scenario is not None:
            # Dynamic-cluster trial: the scenario engine walks the full
            # multi-iteration timeline (failures, stragglers, elastic
            # re-orchestration) on the batched kernel path.
            from repro.scenarios.engine import run_scenario

            metrics = run_scenario(config, scenario).metrics()
        else:
            orchestration = plan(config)
            result = simulate(config, orchestration)
            metrics = {
                f.name: getattr(result, f.name)
                for f in fields(result)
                if f.name != "per_rank_makespans"
            }
            metrics["straggler_spread"] = result.straggler_spread
            metrics["solve_seconds"] = orchestration.solve_seconds
            # Kernel-refined uniform-workload pipeline estimate of the
            # chosen plan; lets sweeps compare the planner's model
            # against the heterogeneity-aware simulation.
            metrics["planned_pipeline_time"] = (
                orchestration.simulated_pipeline_seconds
            )
        record = TrialRecord(
            params=params,
            config_hash=key,
            status="ok",
            metrics=metrics,
            elapsed_seconds=time.monotonic() - start,
        )
    except Exception as exc:  # error isolation: a trial never kills the run
        record = TrialRecord(
            params=params,
            config_hash=key,
            status="failed",
            error=f"{type(exc).__name__}: {exc}",
            traceback=trim_traceback(exc),
            elapsed_seconds=time.monotonic() - start,
        )
    return index, record.to_dict()


# --------------------------------------------------------------------- #
# Campaign
# --------------------------------------------------------------------- #
@dataclass
class CampaignResult:
    """All trial records of one campaign run, plus execution counters."""

    name: str
    records: List[TrialRecord]
    executed: int
    cached: int
    elapsed_seconds: float
    resumed: int = 0
    interrupted: bool = False

    @property
    def failed(self) -> int:
        return sum(1 for record in self.records if not record.ok)

    @property
    def ok_records(self) -> List[TrialRecord]:
        return [record for record in self.records if record.ok]

    @property
    def failures(self) -> List[TrialRecord]:
        return [record for record in self.records if not record.ok]

    def frame(self):
        """The campaign's results as a filterable ResultFrame."""
        from repro.experiments.results import ResultFrame

        return ResultFrame(self.records)

    def summary(self) -> str:
        resumed = f"{self.resumed} resumed, " if self.resumed else ""
        suffix = " [interrupted]" if self.interrupted else ""
        return (
            f"campaign {self.name!r}: {len(self.records)} trials "
            f"({self.executed} executed, {self.cached} cached, "
            f"{resumed}{self.failed} failed) "
            f"in {self.elapsed_seconds:.1f} s{suffix}"
        )


def print_progress(done: int, total: int, record: TrialRecord) -> None:
    """Default progress reporter: one stderr line per completed trial."""
    if record.ok:
        if record.cached:
            outcome = "cached"
        elif record.resumed:
            outcome = "resumed"
        else:
            outcome = f"{record.elapsed_seconds:.1f}s"
        detail = (
            f"mfu={record.metrics.get('mfu', 0.0) * 100:.1f}% "
            f"[{outcome}]"
        )
    else:
        status = record.status.upper() if record.status != "failed" else (
            "FAILED"
        )
        detail = f"{status}: {record.error}"
    print(f"[{done}/{total}] {record.label()} {detail}", file=sys.stderr)


class CampaignRunner:
    """Executes a sweep with caching, supervision, and failure isolation.

    Args:
        spec: The sweep to run.
        cache: Result store; None disables caching (every trial runs).
        processes: Worker processes; None picks ``min(cpu, trials)``,
            1 (or 0) forces in-process serial execution (no supervision:
            timeouts and hung detection need a worker boundary).
        progress: Per-trial completion callback ``(done, total, record)``;
            e.g. :func:`print_progress`. None is silent.
        derive_seeds: Give each trial a distinct deterministic data seed
            derived from its parameters (unless it sets one explicitly).
        timeout: Per-trial wall-clock limit in seconds; None is
            unlimited.
        retry: Transient-fault policy for the supervised path; None uses
            :class:`~repro.experiments.supervisor.RetryPolicy` defaults.
        journal_dir: Directory for the durable campaign journal; None
            disables journaling (and therefore ``resume``).
        resume: Reuse terminal records from an existing journal of the
            same campaign instead of re-executing those trials.
        heartbeat_timeout: Kill a worker whose heartbeat stalls longer
            than this many seconds; None disables hung detection.
    """

    def __init__(
        self,
        spec: SweepSpec,
        cache: Optional[ResultCache] = None,
        processes: Optional[int] = None,
        progress: Optional[ProgressFn] = None,
        derive_seeds: bool = False,
        timeout: Optional[float] = None,
        retry: Optional[RetryPolicy] = None,
        journal_dir: Optional[Any] = None,
        resume: bool = False,
        heartbeat_timeout: Optional[float] = 30.0,
    ) -> None:
        self.spec = spec
        self.cache = cache
        self.processes = processes
        self.progress = progress
        self.derive_seeds = derive_seeds
        self.timeout = timeout
        self.retry = retry
        self.journal_dir = journal_dir
        self.resume = resume
        self.heartbeat_timeout = heartbeat_timeout
        self._interrupted = False

    # ------------------------------------------------------------------ #
    def run(self) -> CampaignResult:
        with obs.span(
            "campaign.run",
            campaign=self.spec.name,
            trials=len(self.spec.expand()),
        ):
            return self._run_impl()

    def _run_impl(self) -> CampaignResult:
        start = time.monotonic()
        trials = self.spec.expand()
        total = len(trials)
        records: List[Optional[TrialRecord]] = [None] * total
        valid: List[Tuple[int, Dict[str, Any], str]] = []
        done = 0

        for index, trial in enumerate(trials):
            params = dict(trial.params)
            if self.derive_seeds and "seed" not in params:
                params["seed"] = derive_trial_seed(params)
            try:
                key = TrialSpec(params).cache_key
            except Exception as exc:
                # The config itself is invalid: record the failure here,
                # without occupying a worker or a cache slot.
                records[index] = TrialRecord(
                    params=params,
                    config_hash="",
                    status="failed",
                    error=f"{type(exc).__name__}: {exc}",
                    traceback=trim_traceback(exc),
                )
                done += 1
                self._report(done, total, records[index])
                continue
            valid.append((index, params, key))

        journal, journaled = self._open_journal(valid, total)

        pending: List[Tuple[int, Dict[str, Any], str]] = []
        cached_count = 0
        resumed_count = 0
        for index, params, key in valid:
            hit = self.cache.get(key) if self.cache is not None else None
            if hit is not None:
                records[index] = TrialRecord.from_dict(hit, cached=True)
                records[index].params = params  # identity over stored copy
                cached_count += 1
                obs.count("campaign.trials_cached")
                done += 1
                self._report(done, total, records[index])
                continue
            replay = journaled.get(key)
            if replay is not None:
                records[index] = TrialRecord.from_dict(replay, resumed=True)
                records[index].params = params
                resumed_count += 1
                obs.count("campaign.trials_resumed")
                if self.cache is not None and records[index].ok:
                    self.cache.put(key, records[index].to_dict())
                done += 1
                self._report(done, total, records[index])
                continue
            pending.append((index, params, key))

        executed = 0
        busy_seconds = 0.0
        interrupted = False
        try:
            for index, record in self._execute(pending):
                records[index] = record
                executed += 1
                if journal is not None:
                    journal.append(record.config_hash, record.to_dict())
                if self.cache is not None and record.ok:
                    self.cache.put(record.config_hash, record.to_dict())
                obs.count(
                    "campaign.trials_ok" if record.ok
                    else "campaign.trials_failed"
                )
                obs.observe("campaign.trial_seconds", record.elapsed_seconds)
                busy_seconds += record.elapsed_seconds
                done += 1
                self._report(done, total, record)
        except KeyboardInterrupt:
            # Serial path (the supervised executor converts signals into
            # a drained stop instead): keep what completed, mark the run.
            obs.count("campaign.interrupts")
            interrupted = True
        interrupted = interrupted or self._interrupted
        if interrupted:
            logger.warning(
                "campaign %s interrupted after %d/%d trials",
                self.spec.name, done, total,
            )

        elapsed = time.monotonic() - start
        if executed and elapsed > 0 and obs.enabled():
            # Aggregate worker utilization: per-trial busy seconds over
            # the worker-seconds the pool had available for them.
            workers = self._worker_count(max(executed, 1))
            obs.gauge(
                "campaign.worker_utilization",
                min(1.0, busy_seconds / (workers * elapsed)),
            )
            obs.gauge("campaign.workers", workers)
        logger.info(
            "campaign %s: %d trials (%d executed, %d cached, %d resumed) "
            "in %.2fs",
            self.spec.name, total, executed, cached_count, resumed_count,
            elapsed,
        )
        final = [record for record in records if record is not None]
        return CampaignResult(
            name=self.spec.name,
            records=final,
            executed=executed,
            cached=cached_count,
            elapsed_seconds=elapsed,
            resumed=resumed_count,
            interrupted=interrupted,
        )

    # ------------------------------------------------------------------ #
    def _open_journal(self, valid, total):
        """(journal, replayable records) for this campaign, if enabled.

        The journal is keyed by the content hash of the campaign's trial
        keys, so ``--resume`` finds the right file by rebuilding the
        grid. A fresh (non-resume) run truncates any previous journal.
        """
        if self.journal_dir is None or not valid:
            return None, {}
        jkey = campaign_key(key for _, _, key in valid)
        journal = CampaignJournal.for_campaign(self.journal_dir, jkey)
        if self.resume and journal.exists() and journal.meta() is not None:
            journaled = journal.load()
            obs.event(
                "campaign.resume",
                campaign=self.spec.name,
                journaled=len(journaled),
            )
            return journal, journaled
        journal.start(self.spec.name, total)
        return journal, {}

    def _report(self, done: int, total: int, record: TrialRecord) -> None:
        if self.progress is not None:
            self.progress(done, total, record)

    def _worker_count(self, pending: int) -> int:
        if self.processes is not None:
            return max(1, min(self.processes, pending))
        return max(1, min(multiprocessing.cpu_count(), pending))

    def _execute(self, pending):
        """Yield ``(index, TrialRecord)`` as trials reach terminal state."""
        self._interrupted = False
        if not pending:
            return
        timeout = self.timeout
        workers = self._worker_count(len(pending))
        if self.processes is not None and self.processes <= 1:
            # Explicitly serial: no worker boundary, so no supervision.
            yield from self._execute_serial(pending)
            return
        if workers == 1 and timeout is None:
            yield from self._execute_serial(pending)
            return
        executor = SupervisedExecutor(
            workers,
            timeout=timeout,
            retry=self.retry,
            heartbeat_timeout=self.heartbeat_timeout,
        )
        completed = set()
        try:
            for index, record in executor.run(pending):
                completed.add(index)
                yield index, TrialRecord.from_dict(record)
        except SupervisorError:
            # Workers cannot start at all (fork failure): finish the
            # remainder serially rather than losing the run.
            traceback.print_exc(file=sys.stderr)
            remainder = [p for p in pending if p[0] not in completed]
            yield from self._execute_serial(remainder)
            return
        finally:
            self._interrupted = self._interrupted or executor.interrupted

    def _execute_serial(self, pending):
        for payload in pending:
            index, record = execute_trial(payload)
            yield index, TrialRecord.from_dict(record)
