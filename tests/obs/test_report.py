"""Run reports: trace loading, aggregation, text rendering."""

import pytest

from repro.obs import METRICS, instrument
from repro.obs.report import (
    event_counts,
    format_hit_miss,
    load_trace,
    render_metrics,
    span_aggregates,
    summarize_trace,
)

from tests.obs.conftest import FakeClock


def make_trace(path, events=2, metrics=True):
    """Write a small deterministic trace file and return its path."""
    with instrument.session(trace=True, clock=FakeClock()) as tracer:
        with instrument.span("orch.plan", gpus=48):
            for i in range(events):
                instrument.event("job.failure", t=float(10 * (events - i)))
            instrument.count("orch.plans")
            instrument.gauge("allocator.free_gpus", 16)
            instrument.observe("kernel.batch_size", 8.0)
        snapshot = METRICS.snapshot() if metrics else None
    tracer.export_jsonl(str(path), metrics=snapshot)
    return str(path)


def test_format_hit_miss():
    assert format_hit_miss(3, 11) == "3/11"


class TestLoadTrace:
    def test_loads_sections(self, tmp_path):
        trace = load_trace(make_trace(tmp_path / "t.jsonl"))
        assert trace["meta"]["spans"] == 1
        assert len(trace["spans"]) == 1
        assert len(trace["events"]) == 2
        assert trace["metrics"]["counters"]["orch.plans"] == 1

    def test_metrics_line_optional(self, tmp_path):
        trace = load_trace(make_trace(tmp_path / "t.jsonl", metrics=False))
        assert trace["metrics"] is None

    def test_rejects_file_without_meta(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"type": "event", "name": "e", "time": 0.0}\n')
        with pytest.raises(ValueError, match="no meta record"):
            load_trace(str(path))

    def test_rejects_unknown_record_type(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"type": "mystery"}\n')
        with pytest.raises(ValueError, match="unknown trace record"):
            load_trace(str(path))

    def test_rejects_version_mismatch(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text(
            '{"type": "meta", "version": 99, "spans": 0, "events": 0}\n'
        )
        with pytest.raises(ValueError, match="version"):
            load_trace(str(path))


class TestAggregates:
    def test_span_aggregates(self):
        spans = [
            {"name": "a", "start": 0.0, "end": 2.0},
            {"name": "a", "start": 3.0, "end": 7.0},
            {"name": "b", "start": 0.0, "end": 1.0},
        ]
        stats = span_aggregates(spans)
        assert stats["a"] == {"count": 2, "total": 6.0, "max": 4.0,
                              "mean": 3.0, "self": 6.0}
        assert stats["b"]["count"] == 1

    def test_self_time_subtracts_children(self):
        spans = [
            {"name": "p", "id": 1, "parent": None,
             "start": 0.0, "end": 10.0},
            {"name": "c", "id": 2, "parent": 1, "start": 1.0, "end": 4.0},
            {"name": "c", "id": 3, "parent": 1, "start": 5.0, "end": 6.0},
        ]
        stats = span_aggregates(spans)
        assert stats["p"]["self"] == 6.0
        assert stats["p"]["total"] == 10.0
        assert stats["c"]["self"] == stats["c"]["total"] == 4.0

    def test_event_counts(self):
        events = [{"name": "x"}, {"name": "y"}, {"name": "x"}]
        assert event_counts(events) == {"x": 2, "y": 1}


class TestRendering:
    def test_render_metrics_sections(self):
        text = render_metrics(
            {
                "counters": {"orch.plans": 4},
                "gauges": {"allocator.free_gpus": 16.0},
                "histograms": {
                    "kernel.batch_size": {
                        "count": 2, "total": 24.0, "min": 8.0, "max": 16.0,
                    }
                },
            }
        )
        assert "counters" in text
        assert "orch.plans" in text
        assert "allocator.free_gpus" in text
        assert "kernel.batch_size" in text

    def test_render_metrics_empty(self):
        assert render_metrics({}) == "(no metrics recorded)"

    def test_summarize_trace_sections(self, tmp_path):
        trace = load_trace(make_trace(tmp_path / "t.jsonl"))
        text = summarize_trace(trace)
        assert text.startswith("trace v1: 1 spans, 2 events")
        assert "spans (by total wall time)" in text
        assert "orch.plan" in text
        assert "timeline (t = virtual seconds)" in text
        assert "counters" in text

    def test_timeline_sorted_by_virtual_time_and_capped(self, tmp_path):
        trace = load_trace(make_trace(tmp_path / "t.jsonl", events=5))
        text = summarize_trace(trace, timeline_limit=3)
        assert "first 3 of 5" in text
        # events are emitted with descending virtual t; the timeline
        # must re-sort them ascending
        timeline = text.split("timeline")[1]
        assert timeline.index("t=10") < timeline.index("t=20")
        assert "t=50" not in timeline
