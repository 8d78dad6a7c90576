"""StepCCL overlap simulation tests (Figure 20)."""

import pytest

from repro.stepccl.overlap import (
    OverlapConfig,
    simulate_overlapped,
    simulate_sequential,
)


def config(**kwargs):
    defaults = dict(comm_time=1.0, compute_time=4.0, num_chunks=4,
                    chunk_overhead=0.0, remap_time=0.1)
    defaults.update(kwargs)
    return OverlapConfig(**defaults)


class TestSequential:
    def test_total_is_sum(self):
        timeline = simulate_sequential(config())
        assert timeline.total_time == pytest.approx(5.0)
        timeline.assert_valid()


class TestOverlapped:
    def test_hides_all_but_first_chunk(self):
        """StepCCL exposes only the first chunk's allgather plus the
        remap: 1/4 + 4 + 0.1."""
        timeline = simulate_overlapped(config())
        assert timeline.total_time == pytest.approx(0.25 + 4.0 + 0.1)
        timeline.assert_valid()

    def test_remap_overlappable_in_backward(self):
        fwd = simulate_overlapped(config(remap_overlappable=False))
        bwd = simulate_overlapped(config(remap_overlappable=True))
        assert bwd.total_time == pytest.approx(fwd.total_time - 0.1)

    def test_comm_bound_layer_cannot_fully_hide(self):
        """When communication exceeds computation, chunks stack up on
        the comm stream (the modular-design case of section A.1)."""
        timeline = simulate_overlapped(
            config(comm_time=8.0, compute_time=2.0)
        )
        # Lower bound: all comm must finish plus the final chunk GEMM.
        assert timeline.total_time >= 8.0 + 2.0 / 4

    def test_chunk_overhead_penalizes_over_chunking(self):
        fine = simulate_overlapped(
            config(num_chunks=64, chunk_overhead=20e-3)
        )
        coarse = simulate_overlapped(
            config(num_chunks=4, chunk_overhead=20e-3)
        )
        assert coarse.total_time < fine.total_time

    def test_single_chunk_equals_sequential_plus_remap(self):
        seq = simulate_sequential(config())
        ovl = simulate_overlapped(config(num_chunks=1))
        assert ovl.total_time == pytest.approx(seq.total_time + 0.1)


class TestSpeedup:
    @staticmethod
    def speedup(cfg):
        """Sequential / StepCCL total time of one layer."""
        return (
            simulate_sequential(cfg).total_time
            / simulate_overlapped(cfg).total_time
        )

    def test_speedup_greater_than_one(self):
        assert self.speedup(config()) > 1.0

    def test_speedup_grows_with_comm_fraction(self):
        light = self.speedup(config(comm_time=0.2))
        heavy = self.speedup(config(comm_time=2.0))
        assert heavy > light


class TestValidation:
    def test_negative_times_rejected(self):
        with pytest.raises(ValueError):
            OverlapConfig(comm_time=-1.0, compute_time=1.0)

    def test_zero_chunks_rejected(self):
        with pytest.raises(ValueError):
            OverlapConfig(comm_time=1.0, compute_time=1.0, num_chunks=0)

    def test_timeline_catches_out_of_order_gemm(self):
        timeline = simulate_overlapped(config())
        # Corrupt: make the first GEMM start before its allgather ends.
        timeline.compute_ops[0] = (-1.0, 0.5)
        with pytest.raises(AssertionError):
            timeline.assert_valid()
