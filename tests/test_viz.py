"""Visualization helper tests."""

import pytest

from repro.pipeline.schedules import ScheduleKind
from repro.pipeline.simulator import PipelineSimulator
from repro.viz import bar_chart, stage_utilization_chart


@pytest.fixture(scope="module")
def trace():
    return PipelineSimulator(3, 6, ScheduleKind.ONE_F_ONE_B).run_uniform(
        1.0, 2.0
    )


class TestBarChart:
    def test_scales_to_peak(self):
        art = bar_chart({"a": 1.0, "b": 2.0}, width=10)
        lines = art.splitlines()
        assert lines[1].count("#") == 10
        assert lines[0].count("#") == 5

    def test_title_and_unit(self):
        art = bar_chart({"x": 1.0}, title="T", unit="s")
        assert art.startswith("T")
        assert "1s" in art

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            bar_chart({})
        with pytest.raises(ValueError):
            bar_chart({"a": 0.0})


class TestTraceCharts:
    def test_stage_utilization(self, trace):
        art = stage_utilization_chart(trace)
        lines = art.splitlines()
        assert lines[0] == "stage utilization:"
        assert len(lines) == 4  # title + one row per stage
