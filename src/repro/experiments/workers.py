"""Reusable worker-process lifecycle machinery.

The campaign supervisor (`experiments/supervisor.py`) runs long-lived
child processes that talk to the parent over a private duplex pipe and
stamp a shared heartbeat so the parent can tell *hung* from *busy*.
This module holds that substrate — context selection, heartbeat
stamping, spawn / kill / exit attribution — apart from the trial
protocol the supervisor speaks over it.

A :class:`WorkerHandle` owns exactly one child process plus its private
pipe end and heartbeat slot. Privacy of the pipe is the crash-isolation
property: a SIGKILLed worker can only ever tear down its own channel,
never a queue shared with surviving workers.
"""

from __future__ import annotations

import multiprocessing
import signal
import threading
import time
from typing import Optional


class WorkerSpawnError(RuntimeError):
    """A worker process could not be started (e.g. fork failed)."""


def mp_context():
    """Prefer fork (inherits compiled kernels; cheap) where available."""
    if "fork" in multiprocessing.get_all_start_methods():
        return multiprocessing.get_context("fork")
    return multiprocessing.get_context()


def heartbeat_loop(value, interval: float, stop: threading.Event) -> None:
    """Stamp ``value`` with a monotonic timestamp every ``interval``.

    Runs as a daemon thread inside the worker; a stale stamp tells the
    parent the worker is wedged (SIGSTOP, swap-death, C-level hang)
    even though the process is technically alive.
    """
    while not stop.wait(interval):
        value.value = time.monotonic()


def start_heartbeat(value, interval: float) -> threading.Event:
    """Spawn the worker-side heartbeat thread; returns its stop event."""
    stop = threading.Event()
    threading.Thread(
        target=heartbeat_loop, args=(value, interval, stop), daemon=True
    ).start()
    return stop


def describe_exit(code: Optional[int]) -> str:
    """Human-readable attribution for a child's exit code."""
    if code is None:
        return "exit status unknown"
    if code < 0:
        try:
            name = signal.Signals(-code).name
        except ValueError:
            name = f"signal {-code}"
        else:
            name = f"signal {-code} ({name})"
        return f"killed by {name}"
    return f"exit code {code}"


class WorkerHandle:
    """One supervised child process: process + private pipe + heartbeat.

    The target callable receives ``(conn, heartbeat, interval, *args)``
    where ``conn`` is the child end of a duplex pipe and ``heartbeat``
    an unlocked shared double the worker should stamp (via
    :func:`start_heartbeat`) while healthy.
    """

    __slots__ = ("process", "conn", "heartbeat", "interval")

    def __init__(self, process, conn, heartbeat, interval: float) -> None:
        self.process = process
        self.conn = conn
        self.heartbeat = heartbeat
        self.interval = interval

    @classmethod
    def spawn(
        cls,
        target,
        args: tuple = (),
        context=None,
        heartbeat_interval: float = 0.1,
    ) -> "WorkerHandle":
        """Fork/spawn a worker running ``target``; returns its handle."""
        ctx = context if context is not None else mp_context()
        parent_conn, child_conn = ctx.Pipe(duplex=True)
        heartbeat = ctx.Value("d", time.monotonic(), lock=False)
        process = ctx.Process(
            target=target,
            args=(child_conn, heartbeat, heartbeat_interval) + tuple(args),
            daemon=True,
        )
        try:
            process.start()
        except OSError as exc:
            parent_conn.close()
            child_conn.close()
            raise WorkerSpawnError(
                f"cannot start worker process: {exc}"
            ) from exc
        child_conn.close()
        return cls(process, parent_conn, heartbeat, heartbeat_interval)

    # ------------------------------------------------------------------ #
    @property
    def alive(self) -> bool:
        return self.process.is_alive()

    def heartbeat_age(self, now: Optional[float] = None) -> float:
        """Seconds since the worker last stamped its heartbeat."""
        if now is None:
            now = time.monotonic()
        return now - self.heartbeat.value

    def kill(self, join_timeout: float = 2.0) -> None:
        """SIGKILL the worker and close the parent pipe end."""
        try:
            self.process.kill()
        except OSError:
            pass
        self.process.join(timeout=join_timeout)
        self.close()

    def close(self) -> None:
        """Close the parent pipe end (idempotent)."""
        try:
            self.conn.close()
        except OSError:
            pass

    def join(self, timeout: Optional[float] = None) -> None:
        self.process.join(timeout=timeout)

    def exit_description(self) -> str:
        return describe_exit(self.process.exitcode)


__all__ = [
    "WorkerHandle",
    "WorkerSpawnError",
    "describe_exit",
    "heartbeat_loop",
    "mp_context",
    "start_heartbeat",
]
