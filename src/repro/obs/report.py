"""Run reports: turn a JSONL flight-recorder trace into human output.

``repro trace summarize`` feeds a trace file through :func:`load_trace`
and :func:`summarize_trace`; the same renderer backs the ``--metrics``
digest the CLI prints after an instrumented run. The optional graphical
timeline lives in :func:`repro.viz.plot_trace_timeline` (matplotlib,
gated — the text report never needs it).
"""

from __future__ import annotations

import json
from typing import Any, Dict, List, Optional

from repro.core.reports import format_table
from repro.obs.tracer import TRACE_VERSION

#: Cap on raw timeline rows so huge traces stay readable.
TIMELINE_LIMIT = 40


def format_hit_miss(hits: int, misses: int) -> str:
    """Canonical ``hits/misses`` cell used by every CLI cache row."""
    return f"{hits}/{misses}"


def load_trace(path: str) -> Dict[str, Any]:
    """Parse a JSONL trace into ``{"meta", "spans", "events",
    "metrics"}`` (metrics may be None)."""
    meta: Optional[Dict[str, Any]] = None
    spans: List[Dict[str, Any]] = []
    events: List[Dict[str, Any]] = []
    metrics: Optional[Dict[str, Any]] = None
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            record = json.loads(line)
            kind = record.get("type")
            if kind == "meta":
                meta = record
            elif kind == "span":
                spans.append(record)
            elif kind == "event":
                events.append(record)
            elif kind == "metrics":
                metrics = record.get("snapshot")
            else:
                raise ValueError(f"unknown trace record type: {kind!r}")
    if meta is None:
        raise ValueError(f"{path}: not a trace file (no meta record)")
    if meta.get("version") != TRACE_VERSION:
        raise ValueError(
            f"{path}: trace version {meta.get('version')!r} "
            f"(expected {TRACE_VERSION})"
        )
    return {"meta": meta, "spans": spans, "events": events,
            "metrics": metrics}


def span_aggregates(
    spans: List[Dict[str, Any]]
) -> Dict[str, Dict[str, float]]:
    """Per-name span stats: count, total/mean/max duration seconds, and
    ``self`` seconds — each span's duration less the durations of the
    spans whose ``parent`` is its ``id``. A span without ``id`` or
    ``parent`` is a root whose self time is its duration."""
    children: Dict[Any, float] = {}
    for record in spans:
        parent = record.get("parent")
        if parent is not None:
            duration = record["end"] - record["start"]
            children[parent] = children.get(parent, 0.0) + duration
    stats: Dict[str, Dict[str, float]] = {}
    for record in spans:
        duration = record["end"] - record["start"]
        s = stats.setdefault(
            record["name"],
            {"count": 0, "total": 0.0, "self": 0.0, "max": 0.0},
        )
        s["count"] += 1
        s["total"] += duration
        s["self"] += duration - children.get(record.get("id"), 0.0)
        if duration > s["max"]:
            s["max"] = duration
    for s in stats.values():
        s["mean"] = s["total"] / s["count"]
    return stats


def event_counts(events: List[Dict[str, Any]]) -> Dict[str, int]:
    counts: Dict[str, int] = {}
    for record in events:
        counts[record["name"]] = counts.get(record["name"], 0) + 1
    return counts


def _event_time(record: Dict[str, Any]) -> float:
    """Virtual simulation time when the event carries one (attr ``t``),
    wall-clock trace time otherwise."""
    attrs = record.get("attrs") or {}
    t = attrs.get("t")
    return float(t) if t is not None else float(record["time"])


def _attr_cell(record: Dict[str, Any]) -> str:
    attrs = record.get("attrs") or {}
    return " ".join(f"{k}={attrs[k]}" for k in attrs)


def render_metrics(snapshot: Dict[str, Any]) -> str:
    """Text digest of a :meth:`MetricsRegistry.snapshot`."""
    sections: List[str] = []
    counters = snapshot.get("counters") or {}
    if counters:
        sections.append(
            format_table(
                ["counter", "value"],
                [[k, str(counters[k])] for k in sorted(counters)],
                title="counters",
            )
        )
    gauges = snapshot.get("gauges") or {}
    if gauges:
        sections.append(
            format_table(
                ["gauge", "value"],
                [[k, gauges[k]] for k in sorted(gauges)],
                title="gauges",
            )
        )
    histograms = snapshot.get("histograms") or {}
    if histograms:
        rows = []
        for name in sorted(histograms):
            h = histograms[name]
            rows.append(
                [
                    name,
                    str(int(h["count"])),
                    h["total"] / h["count"],
                    h["min"],
                    h["max"],
                ]
            )
        sections.append(
            format_table(
                ["histogram", "count", "mean", "min", "max"],
                rows,
                title="histograms",
            )
        )
    if not sections:
        return "(no metrics recorded)"
    return "\n\n".join(sections)


def summarize_trace(
    trace: Dict[str, Any], timeline_limit: int = TIMELINE_LIMIT
) -> str:
    """Full text run report: spans, events, timeline, metrics digest."""
    meta = trace["meta"]
    spans = trace["spans"]
    events = trace["events"]
    parts = [
        f"trace v{meta['version']}: "
        f"{meta['spans']} spans, {meta['events']} events"
    ]

    stats = span_aggregates(spans)
    if stats:
        rows = [
            [
                name,
                str(int(stats[name]["count"])),
                stats[name]["total"],
                stats[name]["self"],
                stats[name]["mean"],
                stats[name]["max"],
            ]
            for name in sorted(
                stats, key=lambda n: -stats[n]["total"]
            )
        ]
        parts.append(
            format_table(
                ["span", "count", "total_s", "self_s", "mean_s", "max_s"],
                rows,
                title="spans (by total wall time)",
            )
        )

    counts = event_counts(events)
    if counts:
        parts.append(
            format_table(
                ["event", "count"],
                [[k, str(counts[k])] for k in sorted(counts)],
                title="events",
            )
        )
        timeline = sorted(events, key=_event_time)
        shown = timeline[:timeline_limit]
        rows = [
            [_event_time(r), r["name"], _attr_cell(r)] for r in shown
        ]
        title = "timeline (t = virtual seconds)"
        if len(timeline) > len(shown):
            title += f" — first {len(shown)} of {len(timeline)}"
        parts.append(format_table(["t", "event", "attrs"], rows,
                                  title=title))

    if trace["metrics"]:
        parts.append(render_metrics(trace["metrics"]))
    return "\n\n".join(parts)
