"""Asynchronous checkpointing (section 3, "DistTrain runtime").

DistTrain uses a dedicated process that periodically snapshots model and
optimizer state to the distributed file system. The snapshot (device-to-
host copy) briefly stalls training; the upload runs in the background and
only stalls training if a new checkpoint is requested before the previous
upload finishes.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class CheckpointConfig:
    """Checkpointing policy and costs.

    Attributes:
        interval_iterations: Iterations between checkpoints.
        snapshot_bandwidth: Device-to-host copy bandwidth per GPU (B/s).
        upload_bandwidth: Aggregate DFS upload bandwidth (B/s).
    """

    interval_iterations: int = 50
    snapshot_bandwidth: float = 20e9
    upload_bandwidth: float = 40e9

    def __post_init__(self) -> None:
        if self.interval_iterations < 1:
            raise ValueError("interval must be >= 1 iteration")
        for name in ("snapshot_bandwidth", "upload_bandwidth"):
            value = getattr(self, name)
            # Written so that NaN fails too.
            if not value > 0:
                raise ValueError(f"{name} must be > 0 B/s, got {value!r}")


@dataclass
class AsyncCheckpointer:
    """Tracks checkpoint timing across a training run.

    Attributes:
        config: Policy and costs.
        state_bytes: Total bytes per checkpoint (params + optimizer).
        per_gpu_state_bytes: Largest per-GPU shard (drives the snapshot
            stall).
    """

    config: CheckpointConfig
    state_bytes: float
    per_gpu_state_bytes: float

    def __post_init__(self) -> None:
        self._upload_finish_time = 0.0
        self.snapshots_taken = 0
        self.total_stall = 0.0
        # Restart bookkeeping, in *resume-iteration* terms: the first
        # iteration a restarted job re-executes. 0 = only the initial
        # weights are reloadable; a snapshot taken after iteration ``i``
        # durably covers iterations 0..i (resume at ``i + 1``) once its
        # background upload has cleared.
        self._durable_resume = 0
        self._pending_resume = 0
        self.restarts = 0

    @property
    def snapshot_stall(self) -> float:
        """Training stall per snapshot (device-to-host copy)."""
        return self.per_gpu_state_bytes / self.config.snapshot_bandwidth

    @property
    def upload_duration(self) -> float:
        return self.state_bytes / self.config.upload_bandwidth

    @property
    def upload_finish_time(self) -> float:
        """When the latest snapshot's background upload clears (0.0
        when none is in flight)."""
        return self._upload_finish_time

    def on_iteration(self, iteration: int, now: float) -> float:
        """Advance to ``iteration`` ending at time ``now``.

        Returns the stall (seconds) this iteration suffers: the snapshot
        copy plus any wait for the previous upload to clear.
        """
        if iteration % self.config.interval_iterations != 0 or iteration == 0:
            return 0.0
        # Either the previous upload has already cleared, or the stall
        # below waits for it: both ways its snapshot is durable by the
        # time this one starts.
        self._durable_resume = self._pending_resume
        stall = self.snapshot_stall
        if now < self._upload_finish_time:
            stall += self._upload_finish_time - now
        self._upload_finish_time = now + stall + self.upload_duration
        # This snapshot is taken after iteration ``iteration`` finished,
        # so it covers the run up to and including it.
        self._pending_resume = iteration + 1
        self.snapshots_taken += 1
        self.total_stall += stall
        return stall

    def durable_resume_iteration(self, now: float) -> int:
        """First iteration a job failing at ``now`` must re-execute.

        Everything before it is covered by a durable checkpoint. A
        snapshot in mid-upload is *not* reloadable — a failure during
        the upload rolls back to the previous durable one.
        """
        if now >= self._upload_finish_time:
            return self._pending_resume
        return self._durable_resume

    def resume_from(self, iteration: int) -> None:
        """Seed restart bookkeeping: the next iteration to run is
        ``iteration`` and everything before it is durable.

        Used when a checkpointer is rebuilt mid-run (elastic replan
        re-sizes the state shards): the reloaded checkpoint becomes the
        durable baseline and no upload is in flight.
        """
        if iteration < 0:
            raise ValueError("iteration must be >= 0")
        self._upload_finish_time = 0.0
        self._durable_resume = iteration
        self._pending_resume = iteration

    def restart_from_latest(self, now: float) -> int:
        """Recover after a failure at time ``now``.

        Returns the iteration training resumes from (everything before
        it reloads from the latest durable checkpoint) and resets the
        in-flight upload state: after a restart no upload is pending,
        and the reloaded checkpoint is the durable baseline.
        """
        iteration = self.durable_resume_iteration(now)
        self._upload_finish_time = 0.0
        self._durable_resume = iteration
        self._pending_resume = iteration
        self.restarts += 1
        return iteration


def build_checkpointer(plan, config: CheckpointConfig) -> AsyncCheckpointer:
    """Size an :class:`AsyncCheckpointer` for an orchestration plan.

    The checkpoint state is the full model + optimizer (bf16 weights,
    fp32 optimizer state); the snapshot stall is driven by the largest
    per-GPU shard, which the LLM unit holds. The scenario engine
    rebuilds one on every replan, so a resized slice prices its own
    shards.
    """
    params = plan.mllm.param_count()
    state_bytes = params * (2.0 + 12.0)  # bf16 weights + fp32 optim
    llm_plan = plan.plans["llm"]
    per_gpu = (
        plan.mllm.llm.param_count()
        / (llm_plan.tp * llm_plan.pp)
        * (2.0 + 12.0 / llm_plan.dp)
    )
    return AsyncCheckpointer(
        config=config,
        state_bytes=state_bytes,
        per_gpu_state_bytes=per_gpu,
    )
