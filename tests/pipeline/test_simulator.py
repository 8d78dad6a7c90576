"""Pipeline simulator tests: analytic cross-checks and invariants."""

import numpy as np
import pytest

from repro.pipeline.schedules import ScheduleKind
from repro.pipeline.simulator import PipelineSimulator, StageWork


class TestAnalyticMakespans:
    @pytest.mark.parametrize("p,l", [(2, 4), (4, 6), (4, 8), (8, 16)])
    def test_1f1b_uniform_makespan(self, p, l):
        """1F1B with uniform times: (p-1+l)*(tf+tb)."""
        tf, tb = 1.0, 2.0
        trace = PipelineSimulator(p, l, ScheduleKind.ONE_F_ONE_B).run_uniform(
            tf, tb
        )
        assert trace.makespan == pytest.approx((p - 1 + l) * (tf + tb))

    @pytest.mark.parametrize("p,l", [(2, 4), (4, 8)])
    def test_gpipe_uniform_makespan(self, p, l):
        tf, tb = 1.0, 2.0
        trace = PipelineSimulator(p, l, ScheduleKind.GPIPE).run_uniform(tf, tb)
        assert trace.makespan == pytest.approx((p - 1 + l) * (tf + tb))

    def test_vpp_reduces_bubble(self):
        p, l = 4, 8
        base = PipelineSimulator(p, l, ScheduleKind.ONE_F_ONE_B).run_uniform(
            1.0, 2.0
        )
        vpp = PipelineSimulator(p, l, ScheduleKind.INTERLEAVED, vpp=2)
        # Per-chunk duration is half the per-stage duration.
        trace = vpp.run_uniform(0.5, 1.0)
        assert trace.makespan < base.makespan
        # VPP bubble is (p-1)*(f+b)/v; total = l*(f+b) + bubble.
        expected = l * 3.0 + (p - 1) * 3.0 / 2
        assert trace.makespan == pytest.approx(expected)

    def test_single_stage_no_bubble(self):
        trace = PipelineSimulator(1, 8).run_uniform(1.0, 2.0)
        assert trace.makespan == pytest.approx(8 * 3.0)
        assert trace.bubble_fraction() == pytest.approx(0.0)


class TestHeterogeneousTimes:
    def test_straggler_microbatch_extends_makespan(self):
        p, l = 3, 6
        fwd = np.ones((p, l))
        bwd = 2 * np.ones((p, l))
        base = PipelineSimulator(p, l).run(StageWork.from_tables(fwd, bwd))
        fwd_straggler = fwd.copy()
        fwd_straggler[0, 2] = 20.0  # heavy microbatch at the first stage
        slow = PipelineSimulator(p, l).run(
            StageWork.from_tables(fwd_straggler, bwd)
        )
        assert slow.makespan > base.makespan

    def test_comm_delay_extends_makespan(self):
        p, l = 4, 8
        fast = PipelineSimulator(p, l).run_uniform(1.0, 2.0, comm=0.0)
        slow = PipelineSimulator(p, l).run_uniform(1.0, 2.0, comm=0.5)
        assert slow.makespan > fast.makespan

    def test_trace_validity_random(self):
        rng = np.random.default_rng(0)
        p, l = 5, 12
        fwd = rng.uniform(0.5, 2.0, (p, l))
        bwd = rng.uniform(1.0, 4.0, (p, l))
        trace = PipelineSimulator(p, l).run(
            StageWork.from_tables(fwd, bwd, comm=0.1)
        )
        trace.assert_valid()
        assert trace.makespan >= (fwd.sum(axis=1) + bwd.sum(axis=1)).max()


class TestVppSimulation:
    def test_interleaved_valid(self):
        sim = PipelineSimulator(4, 8, ScheduleKind.INTERLEAVED, vpp=2)
        trace = sim.run_uniform(0.5, 1.0)
        trace.assert_valid()

    def test_vpp_forced_to_one_for_other_schedules(self):
        sim = PipelineSimulator(4, 8, ScheduleKind.ONE_F_ONE_B, vpp=4)
        assert sim.vpp == 1


class TestStageWork:
    def test_from_tables_duration_lookup(self):
        work = StageWork.from_tables([[1, 2]], [[3, 4]], comm=1)
        assert work.fwd_table.dtype == work.bwd_table.dtype == float
        assert work.fwd_table[0, 1] == 2.0
        assert work.bwd_table[0, 0] == 3.0
        assert type(work.comm) is float and work.comm == 1.0
