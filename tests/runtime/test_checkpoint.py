"""Async checkpointing tests."""

import pytest

from repro.runtime.checkpoint import AsyncCheckpointer, CheckpointConfig


def checkpointer(interval=10, state=100e9, per_gpu=1e9, **kwargs):
    return AsyncCheckpointer(
        config=CheckpointConfig(interval_iterations=interval, **kwargs),
        state_bytes=state,
        per_gpu_state_bytes=per_gpu,
    )


class TestCheckpointer:
    def test_interval_respected(self):
        cp = checkpointer(interval=5)
        stalls = [cp.on_iteration(i, float(i)) for i in range(1, 16)]
        stalled_iters = [i + 1 for i, s in enumerate(stalls) if s > 0]
        assert stalled_iters == [5, 10, 15]

    def test_no_stall_at_iteration_zero(self):
        assert checkpointer().on_iteration(0, 0.0) == 0.0

    def test_snapshot_stall_value(self):
        cp = checkpointer(per_gpu=20e9, snapshot_bandwidth=20e9)
        assert cp.snapshot_stall == pytest.approx(1.0)

    def test_back_to_back_checkpoints_wait_for_upload(self):
        cp = checkpointer(interval=1, state=400e9, upload_bandwidth=40e9)
        first = cp.on_iteration(1, 1.0)
        # Next request arrives long before the 10s upload finishes.
        second = cp.on_iteration(2, 2.0)
        assert second > first

    def test_total_stall_accumulates(self):
        cp = checkpointer(interval=2)
        for i in range(1, 9):
            cp.on_iteration(i, float(i) * 100)
        assert cp.snapshots_taken == 4
        assert cp.total_stall == pytest.approx(4 * cp.snapshot_stall)

    def test_invalid_interval(self):
        with pytest.raises(ValueError):
            CheckpointConfig(interval_iterations=0)

    @pytest.mark.parametrize("value", [0.0, -1.0, float("nan")])
    @pytest.mark.parametrize(
        "field", ["snapshot_bandwidth", "upload_bandwidth"]
    )
    def test_invalid_bandwidth(self, field, value):
        """A bandwidth that is not > 0 fails where the policy is built,
        naming the field, not as a division by zero or a negative or
        NaN upload deep in a run."""
        with pytest.raises(ValueError, match=f"{field} must be > 0"):
            CheckpointConfig(**{field: value})


class TestRestartBookkeeping:
    """Error/recovery paths: where a failed job resumes from."""

    def test_fresh_checkpointer_restarts_from_zero(self):
        cp = checkpointer(interval=10)
        assert cp.durable_resume_iteration(now=123.0) == 0
        assert cp.restart_from_latest(now=123.0) == 0
        assert cp.restarts == 1

    def test_uploaded_checkpoint_is_durable(self):
        # The snapshot taken after iteration 10 covers iterations 0..10:
        # once uploaded, a restart resumes at iteration 11.
        cp = checkpointer(interval=10, state=100e9, upload_bandwidth=40e9)
        cp.on_iteration(10, 100.0)  # upload takes 2.5 s
        assert cp.durable_resume_iteration(now=200.0) == 11

    def test_failure_during_upload_rolls_back_further(self):
        # Snapshot after iteration 20 is mid-upload when the failure
        # hits: the job must reload the *previous* durable checkpoint
        # and re-execute from iteration 11.
        cp = checkpointer(interval=10, state=400e9, upload_bandwidth=40e9)
        cp.on_iteration(10, 100.0)
        cp.on_iteration(20, 200.0)  # upload in flight until ~210 s
        assert cp.durable_resume_iteration(now=201.0) == 11
        assert cp.restart_from_latest(now=201.0) == 11
        # After the restart no upload is pending: the reloaded
        # checkpoint is durable and a second immediate failure does not
        # roll back any further.
        assert cp.durable_resume_iteration(now=201.0) == 11
        assert cp.restart_from_latest(now=201.0) == 11
        assert cp.restarts == 2

    def test_waiting_for_upload_makes_it_durable(self):
        # Back-to-back checkpoints: the stall waits for the previous
        # upload, which therefore becomes durable.
        cp = checkpointer(interval=1, state=400e9, upload_bandwidth=40e9)
        cp.on_iteration(1, 1.0)
        cp.on_iteration(2, 2.0)  # stalls until iteration 1's upload ends
        assert cp.durable_resume_iteration(now=2.0) >= 2

    def test_resume_from_seeds_bookkeeping(self):
        cp = checkpointer(interval=10)
        cp.resume_from(40)
        assert cp.durable_resume_iteration(now=0.0) == 40
        assert cp.restart_from_latest(now=0.0) == 40

    def test_resume_from_rejects_negative(self):
        with pytest.raises(ValueError):
            checkpointer().resume_from(-1)

    def test_restart_counts_accumulate(self):
        cp = checkpointer(interval=5)
        for _ in range(3):
            cp.restart_from_latest(now=10.0)
        assert cp.restarts == 3
