"""PipelineTrace accounting tests."""

import pytest

from repro.pipeline.ops import Direction, PipelineOp
from repro.pipeline.schedules import ScheduleKind
from repro.pipeline.simulator import PipelineSimulator
from repro.pipeline.trace import OpRecord, PipelineTrace


def uniform_trace(p=4, l=6, tf=1.0, tb=2.0):
    return PipelineSimulator(p, l, ScheduleKind.ONE_F_ONE_B).run_uniform(tf, tb)


class TestAccounting:
    def test_stage_busy_time(self):
        trace = uniform_trace()
        # Each stage runs l forwards and l backwards.
        assert trace.stage_busy_time(0) == pytest.approx(6 * 3.0)

    def test_bubble_fraction_formula(self):
        p, l = 4, 6
        trace = uniform_trace(p, l)
        expected = (p - 1) / (p - 1 + l)
        assert trace.bubble_fraction() == pytest.approx(expected)

    def test_last_stage_has_no_bubble_interior(self):
        trace = uniform_trace()
        # Stage p-1 in uniform 1F1B runs continuously between its first
        # and last op; its idle time equals warmup + cooldown.
        gaps = trace.stage_idle_gaps(3)
        assert gaps == []

    def test_first_stage_idle_gaps_exist(self):
        trace = uniform_trace()
        assert len(trace.stage_idle_gaps(0)) > 0


class TestValidation:
    def test_valid_trace_passes(self):
        uniform_trace().assert_valid()

    def test_overlap_detected(self):
        records = [
            OpRecord(PipelineOp(0, 0, Direction.FWD), 0.0, 2.0),
            OpRecord(PipelineOp(0, 1, Direction.FWD), 1.0, 3.0),
        ]
        trace = PipelineTrace(1, 2, 1, records)
        with pytest.raises(AssertionError):
            trace.assert_valid()

    def test_backward_before_forward_detected(self):
        records = [
            OpRecord(PipelineOp(0, 0, Direction.BWD), 0.0, 1.0),
            OpRecord(PipelineOp(0, 0, Direction.FWD), 1.0, 2.0),
        ]
        trace = PipelineTrace(1, 1, 1, records)
        with pytest.raises(AssertionError):
            trace.assert_valid()

    def test_op_record_rejects_negative_duration(self):
        with pytest.raises(ValueError):
            OpRecord(PipelineOp(0, 0, Direction.FWD), 2.0, 1.0)


class TestRendering:
    def test_ascii_shape(self):
        trace = uniform_trace(p=3, l=4)
        art = trace.render_ascii(width=60)
        lines = art.splitlines()
        assert len(lines) == 3
        assert all(len(line) == len(lines[0]) for line in lines)

    def test_forward_lowercase_backward_uppercase(self):
        art = uniform_trace(p=2, l=2).render_ascii(width=40)
        assert "a" in art and "A" in art

    def test_empty_trace(self):
        trace = PipelineTrace(1, 0, 1, [])
        assert trace.render_ascii() == "(empty trace)"
        assert trace.makespan == 0.0
        assert trace.bubble_fraction() == 0.0
