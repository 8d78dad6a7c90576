"""Supervised campaign execution: per-worker process supervision.

The bare ``multiprocessing.Pool`` the campaign runner started with is
fair-weather machinery: one hung trial wedges ``imap_unordered``
forever, and a worker that segfaults or is OOM-killed takes the whole
pool down with no record of which configuration did it. This module
replaces it with an explicitly supervised worker fleet:

* **Per-trial wall-clock timeouts.** Each dispatched trial carries a
  deadline; an overrunning worker is SIGKILLed and the trial retried on
  a fresh worker.
* **Heartbeat-based hung-worker detection.** Every worker runs a
  daemon thread stamping a shared monotonic timestamp; a worker whose
  heartbeat goes stale (SIGSTOP, swap-death, C-level wedge) is killed
  and its in-flight trial retried — even with no timeout configured.
* **Crashed-worker attribution.** A worker that dies mid-trial (exit
  or signal) has its death attributed to the in-flight trial, which is
  retried on a fresh worker.
* **A deterministic :class:`RetryPolicy`.** Transient faults (worker
  death, timeout, stalled heartbeat) are retried with capped
  exponential backoff up to ``max_attempts`` executions; trials that
  *crash* ``poison_after`` workers are quarantined as terminal
  ``status="poisoned"`` records instead of sinking the fleet. Trial
  exceptions are deterministic failures and are never retried (they
  never killed a run before either).
* **Graceful drain on SIGINT/SIGTERM.** The supervisor stops
  dispatching, briefly collects results already in flight, kills the
  rest, and returns control with :attr:`SupervisedExecutor.interrupted`
  set — the runner flushes its journal and reports a partial campaign
  instead of a stack trace.

Workers are long-lived (one fork inherits every kernel shape compiled
in the parent, exactly like the pool path) and each owns a private
duplex pipe, so a SIGKILL can only ever tear that worker's own channel
— never a queue shared with survivors.
"""

from __future__ import annotations

import itertools
import signal
import threading
import time
from dataclasses import dataclass
from heapq import heappop, heappush
from multiprocessing.connection import wait as _connection_wait
from typing import Any, Dict, Iterator, List, Optional, Sequence, Tuple

from repro.experiments.workers import (
    WorkerHandle,
    WorkerSpawnError,
    mp_context as _mp_context,
    start_heartbeat,
)
from repro.obs import instrument as obs

#: Terminal trial statuses (shared with the runner and the journal).
STATUS_OK = "ok"
STATUS_FAILED = "failed"
STATUS_TIMEOUT = "timed-out"
STATUS_POISONED = "poisoned"

#: Transient fault causes the retry policy distinguishes.
CAUSE_WORKER_DEATH = "worker-death"
CAUSE_TIMEOUT = "timeout"
CAUSE_HUNG = "hung"

#: Upper bound on one select/poll cycle, so an interrupt flag set by a
#: signal handler is noticed promptly even while idle.
_MAX_POLL_SECONDS = 0.25


class SupervisorError(RuntimeError):
    """Supervision machinery could not start (e.g. fork failed)."""


@dataclass(frozen=True)
class RetryPolicy:
    """Deterministic handling of transient trial faults.

    Attributes:
        max_attempts: Total executions a trial may consume on transient
            faults before it is recorded terminally (``timed-out`` for
            timeouts/hangs, ``failed`` for worker deaths).
        backoff_seconds: Base of the capped exponential backoff between
            retries of the same trial (0 disables waiting).
        backoff_cap_seconds: Ceiling of the backoff.
        poison_after: A trial that has *crashed* this many workers is
            quarantined as ``status="poisoned"`` — timeouts killed by
            the supervisor itself do not count toward poisoning.
    """

    max_attempts: int = 3
    backoff_seconds: float = 0.05
    backoff_cap_seconds: float = 1.0
    poison_after: int = 2

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValueError("max_attempts must be >= 1")
        if self.poison_after < 1:
            raise ValueError("poison_after must be >= 1")
        if self.backoff_seconds < 0 or self.backoff_cap_seconds < 0:
            raise ValueError("backoff must be >= 0")

    def backoff(self, failures: int) -> float:
        """Delay before retry number ``failures`` (1-based)."""
        if self.backoff_seconds <= 0:
            return 0.0
        return min(
            self.backoff_cap_seconds,
            self.backoff_seconds * (2 ** max(0, failures - 1)),
        )


# --------------------------------------------------------------------- #
# Worker process
# --------------------------------------------------------------------- #
def _worker_main(conn, heartbeat, interval: float) -> None:
    """Long-lived worker: recv task, execute, send result, repeat.

    SIGINT is ignored so a terminal Ctrl-C (delivered to the whole
    process group) leaves draining decisions to the supervisor.
    """
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    stop = start_heartbeat(heartbeat, interval)
    from repro.experiments.runner import execute_trial

    try:
        while True:
            try:
                task = conn.recv()
            except (EOFError, OSError):
                return
            if task is None:
                return
            heartbeat.value = time.monotonic()
            index, record = execute_trial(task)
            try:
                conn.send((index, task[3], record))
            except (BrokenPipeError, OSError):
                return
    finally:
        stop.set()


class _WorkerSlot:
    """One supervised worker: its handle and the trial it runs."""

    __slots__ = ("handle", "task", "started", "deadline")

    def __init__(self, handle: WorkerHandle) -> None:
        self.handle = handle
        self.task: Optional[Tuple] = None  # (index, params, key, attempt)
        self.started: float = 0.0
        self.deadline: Optional[float] = None

    @property
    def busy(self) -> bool:
        return self.task is not None


# --------------------------------------------------------------------- #
# Supervisor
# --------------------------------------------------------------------- #
class SupervisedExecutor:
    """Executes trial payloads on a supervised worker fleet.

    Args:
        workers: Worker processes to keep alive while work remains.
        timeout: Per-trial wall-clock limit in seconds; None disables.
        retry: Transient-fault policy; defaults to :class:`RetryPolicy`.
        heartbeat_timeout: Kill a busy worker whose heartbeat is older
            than this many seconds; None disables hung detection.
        heartbeat_interval: How often workers stamp their heartbeat.
        grace_seconds: How long an interrupt drain waits for results
            already in flight before killing workers.
        context: ``multiprocessing`` context override (tests).

    :meth:`run` yields ``(index, record_dict)`` as trials reach a
    terminal state; after it returns, :attr:`interrupted` tells whether
    the run drained early on SIGINT/SIGTERM.
    """

    def __init__(
        self,
        workers: int,
        timeout: Optional[float] = None,
        retry: Optional[RetryPolicy] = None,
        heartbeat_timeout: Optional[float] = 30.0,
        heartbeat_interval: float = 0.1,
        grace_seconds: float = 1.0,
        context=None,
    ) -> None:
        self.workers = max(1, int(workers))
        self.timeout = timeout
        self.retry = retry if retry is not None else RetryPolicy()
        self.heartbeat_timeout = heartbeat_timeout
        self.heartbeat_interval = heartbeat_interval
        self.grace_seconds = grace_seconds
        self.interrupted = False
        self._ctx = context if context is not None else _mp_context()
        self._slots: List[_WorkerSlot] = []
        self._seq = itertools.count()

    # ------------------------------------------------------------------ #
    def run(
        self, pending: Sequence[Tuple[int, Dict[str, Any], str]]
    ) -> Iterator[Tuple[int, Dict[str, Any]]]:
        """Yield ``(index, record_dict)`` as payloads become terminal."""
        total = len(pending)
        if total == 0:
            return
        self.interrupted = False
        # (ready_at, seq, payload, attempt); seq keeps ordering stable.
        heap: List[Tuple[float, int, Tuple, int]] = []
        for payload in pending:
            heappush(heap, (0.0, next(self._seq), tuple(payload), 0))
        kills: Dict[int, int] = {}
        timeouts: Dict[int, int] = {}
        done = 0
        previous = self._install_signal_handlers()
        try:
            with obs.span(
                "campaign.supervise",
                workers=min(self.workers, total),
                trials=total,
            ):
                while done < total and not self.interrupted:
                    now = time.monotonic()
                    self._dispatch(heap, now)
                    wait = self._wait_seconds(heap, time.monotonic())
                    completions, faults = self._collect(wait)
                    faults.extend(self._check_health(time.monotonic()))
                    for index, attempt, record in completions:
                        done += 1
                        yield index, record
                    for payload, attempt, cause, detail in faults:
                        record = self._resolve_fault(
                            heap, kills, timeouts,
                            payload, attempt, cause, detail,
                        )
                        if record is not None:
                            done += 1
                            yield payload[0], record
                if self.interrupted:
                    obs.event("supervisor.interrupted", completed=done)
                    obs.count("campaign.interrupts")
                    for index, attempt, record in self._drain():
                        done += 1
                        yield index, record
        finally:
            self._shutdown()
            self._restore_signal_handlers(previous)

    # ------------------------------------------------------------------ #
    # Dispatch / collect
    # ------------------------------------------------------------------ #
    def _dispatch(self, heap, now: float) -> None:
        busy = sum(1 for slot in self._slots if slot.busy)
        want = min(self.workers, busy + len(heap))
        while len(self._slots) < want:
            self._slots.append(self._spawn())
        for slot in list(self._slots):
            if not heap or heap[0][0] > now:
                break
            if slot.busy:
                continue
            ready_at, seq, payload, attempt = heappop(heap)
            task = (payload[0], payload[1], payload[2], attempt)
            try:
                slot.handle.conn.send(task)
            except (BrokenPipeError, OSError):
                # Worker already dead while idle: no trial to blame.
                heappush(heap, (ready_at, seq, payload, attempt))
                self._discard(slot)
                continue
            slot.task = task
            slot.started = now
            slot.deadline = (
                now + self.timeout if self.timeout is not None else None
            )
            slot.handle.heartbeat.value = now

    def _collect(self, wait: float):
        """(completions, faults) after one bounded select cycle.

        completions: ``(index, attempt, record_dict)``.
        faults: ``(payload, attempt, cause, detail)``.
        """
        completions = []
        faults = []
        conns = {slot.handle.conn: slot for slot in self._slots}
        if not conns:
            if wait > 0:
                time.sleep(wait)
            return completions, faults
        try:
            ready = _connection_wait(list(conns), timeout=wait)
        except OSError:
            ready = []
        for conn in ready:
            slot = conns[conn]
            try:
                message = conn.recv()
            except (EOFError, OSError):
                self._reap(slot, faults)
                continue
            index, attempt, record = message
            if slot.task is not None and slot.task[0] == index:
                slot.task = None
                slot.deadline = None
                completions.append((index, attempt, record))
        return completions, faults

    def _check_health(self, now: float):
        """Kill overrunning / heartbeat-stale workers; return faults."""
        faults = []
        for slot in list(self._slots):
            if not slot.busy:
                continue
            if slot.deadline is not None and now > slot.deadline:
                payload, attempt = slot.task[:3], slot.task[3]
                detail = (
                    f"trial exceeded its {self.timeout:.1f}s wall-clock "
                    f"timeout"
                )
                obs.event(
                    "supervisor.timeout", trial=payload[0], attempt=attempt
                )
                self._kill(slot)
                faults.append((payload, attempt, CAUSE_TIMEOUT, detail))
                continue
            if self.heartbeat_timeout is not None:
                stale = slot.handle.heartbeat_age(now)
                if stale > self.heartbeat_timeout:
                    payload, attempt = slot.task[:3], slot.task[3]
                    detail = (
                        f"worker heartbeat stalled for {stale:.1f}s "
                        f"(limit {self.heartbeat_timeout:.1f}s)"
                    )
                    obs.event(
                        "supervisor.hung", trial=payload[0], attempt=attempt
                    )
                    self._kill(slot)
                    faults.append((payload, attempt, CAUSE_HUNG, detail))
        return faults

    def _reap(self, slot: _WorkerSlot, faults: List) -> None:
        """A worker's pipe hit EOF: the process died. Attribute it."""
        slot.handle.join(timeout=2.0)
        if slot.busy:
            payload, attempt = slot.task[:3], slot.task[3]
            detail = (
                f"worker died mid-trial ({slot.handle.exit_description()})"
            )
            obs.event(
                "supervisor.worker_death",
                trial=payload[0], attempt=attempt,
                exitcode=slot.handle.process.exitcode,
            )
            faults.append((payload, attempt, CAUSE_WORKER_DEATH, detail))
        self._discard(slot)

    # ------------------------------------------------------------------ #
    # Retry policy application
    # ------------------------------------------------------------------ #
    def _resolve_fault(
        self, heap, kills, timeouts, payload, attempt, cause, detail
    ) -> Optional[Dict[str, Any]]:
        """Requeue the trial (returns None) or build a terminal record."""
        index, params, key = payload
        failures = attempt + 1
        if cause == CAUSE_WORKER_DEATH:
            kills[index] = kills.get(index, 0) + 1
            obs.count("campaign.worker_deaths")
        else:
            timeouts[index] = timeouts.get(index, 0) + 1
            obs.count("campaign.trial_timeouts")
        if kills.get(index, 0) >= self.retry.poison_after:
            obs.count("campaign.trials_poisoned")
            obs.event("supervisor.poisoned", trial=index,
                      worker_deaths=kills[index])
            error = (
                f"quarantined as poison after crashing {kills[index]} "
                f"workers; last: {detail}"
            )
            return _terminal_record(params, key, STATUS_POISONED, error)
        if failures >= self.retry.max_attempts:
            status = (
                STATUS_FAILED if cause == CAUSE_WORKER_DEATH
                else STATUS_TIMEOUT
            )
            error = (
                f"gave up after {failures} attempts "
                f"({kills.get(index, 0)} worker deaths, "
                f"{timeouts.get(index, 0)} timeouts); last: {detail}"
            )
            return _terminal_record(params, key, status, error)
        obs.count("campaign.retries")
        obs.event("supervisor.retry", trial=index, attempt=failures,
                  cause=cause)
        ready_at = time.monotonic() + self.retry.backoff(failures)
        heappush(heap, (ready_at, next(self._seq), payload, attempt + 1))
        return None

    # ------------------------------------------------------------------ #
    # Timing
    # ------------------------------------------------------------------ #
    def _wait_seconds(self, heap, now: float) -> float:
        wait = _MAX_POLL_SECONDS
        if heap and not all(slot.busy for slot in self._slots):
            wait = min(wait, max(0.0, heap[0][0] - now))
        for slot in self._slots:
            if not slot.busy:
                continue
            if slot.deadline is not None:
                wait = min(wait, max(0.0, slot.deadline - now))
            if self.heartbeat_timeout is not None:
                left = self.heartbeat_timeout - slot.handle.heartbeat_age(now)
                wait = min(wait, max(0.0, left))
        return wait

    # ------------------------------------------------------------------ #
    # Interrupt drain
    # ------------------------------------------------------------------ #
    def _drain(self):
        """Collect results already in flight, then stop.

        Workers get ``grace_seconds`` to hand over trials that are
        effectively done; everything still running afterwards is killed
        (the journal makes those trials resumable).
        """
        deadline = time.monotonic() + self.grace_seconds
        while any(slot.busy for slot in self._slots):
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                break
            completions, _faults = self._collect(min(remaining, 0.05))
            for index, attempt, record in completions:
                yield index, attempt, record

    # ------------------------------------------------------------------ #
    # Worker lifecycle
    # ------------------------------------------------------------------ #
    def _spawn(self) -> _WorkerSlot:
        try:
            handle = WorkerHandle.spawn(
                _worker_main,
                context=self._ctx,
                heartbeat_interval=self.heartbeat_interval,
            )
        except WorkerSpawnError as exc:
            raise SupervisorError(
                f"cannot start supervised worker: {exc}"
            ) from exc
        obs.count("campaign.workers_spawned")
        return _WorkerSlot(handle)

    def _kill(self, slot: _WorkerSlot) -> None:
        slot.handle.kill()
        obs.count("campaign.workers_killed")
        self._discard(slot)

    def _discard(self, slot: _WorkerSlot) -> None:
        slot.handle.close()
        if slot in self._slots:
            self._slots.remove(slot)

    def _shutdown(self) -> None:
        for slot in self._slots:
            try:
                slot.handle.conn.send(None)
            except (BrokenPipeError, OSError):
                pass
        deadline = time.monotonic() + max(self.grace_seconds, 0.2)
        for slot in self._slots:
            slot.handle.join(timeout=max(0.0, deadline - time.monotonic()))
            if slot.handle.alive:
                slot.handle.kill()
            slot.handle.close()
        self._slots = []

    # ------------------------------------------------------------------ #
    # Signals
    # ------------------------------------------------------------------ #
    def _install_signal_handlers(self):
        if threading.current_thread() is not threading.main_thread():
            return None

        def handler(signum, frame):
            if self.interrupted:
                raise KeyboardInterrupt  # second signal: stop insisting
            self.interrupted = True

        previous = {}
        for signum in (signal.SIGINT, signal.SIGTERM):
            previous[signum] = signal.signal(signum, handler)
        return previous

    def _restore_signal_handlers(self, previous) -> None:
        if not previous:
            return
        for signum, handler in previous.items():
            signal.signal(signum, handler)


def _terminal_record(
    params: Dict[str, Any], key: str, status: str, error: str
) -> Dict[str, Any]:
    """A synthetic terminal record for a trial that never returned."""
    return {
        "params": dict(params),
        "config_hash": key,
        "status": status,
        "metrics": {},
        "error": error,
        "traceback": "",
        "elapsed_seconds": 0.0,
    }


__all__ = [
    "CAUSE_HUNG",
    "CAUSE_TIMEOUT",
    "CAUSE_WORKER_DEATH",
    "STATUS_FAILED",
    "STATUS_OK",
    "STATUS_POISONED",
    "STATUS_TIMEOUT",
    "RetryPolicy",
    "SupervisedExecutor",
    "SupervisorError",
]
