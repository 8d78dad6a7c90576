"""Terminal visualization helpers.

ASCII bar charts for the examples — the closest a terminal gets to the
paper's figures — and the flight-recorder trace plot.
"""

from __future__ import annotations

from typing import Any, Dict, List

from repro.pipeline.trace import PipelineTrace


def bar_chart(
    values: Dict[str, float],
    width: int = 50,
    unit: str = "",
    title: str = "",
) -> str:
    """Horizontal ASCII bar chart, scaled to the largest value."""
    if not values:
        raise ValueError("no values to chart")
    peak = max(values.values())
    if peak <= 0:
        raise ValueError("values must contain a positive entry")
    label_width = max(len(str(k)) for k in values)
    lines = [title] if title else []
    for key, value in values.items():
        bar = "#" * max(1, round(width * value / peak)) if value > 0 else ""
        lines.append(
            f"{str(key).ljust(label_width)} |{bar.ljust(width)}| "
            f"{value:.3g}{unit}"
        )
    return "\n".join(lines)


def stage_utilization_chart(trace: PipelineTrace, width: int = 50) -> str:
    """Per-stage busy fraction of a pipeline trace."""
    values = {
        f"stage {s}": (
            trace.stage_busy_time(s) / trace.makespan
            if trace.makespan > 0
            else 0.0
        )
        for s in range(trace.num_stages)
    }
    return bar_chart(values, width=width, title="stage utilization:")


def plot_trace_timeline(trace: Dict[str, Any], path: str) -> str:
    """Render a flight-recorder trace (see :mod:`repro.obs.report`)
    as a two-panel figure: event lanes on the simulation clock, and
    span wall time by name.

    Matplotlib is an optional extra; without it this raises a
    RuntimeError and the text report stands on its own.
    """
    try:
        import matplotlib

        matplotlib.use("Agg")
        import matplotlib.pyplot as plt
    except ImportError as exc:
        raise RuntimeError(
            "matplotlib is not installed; the text report "
            "(`repro trace summarize` without --plot) needs no extras"
        ) from exc
    from repro.obs.report import span_aggregates

    events = trace["events"]
    lanes: Dict[str, List[float]] = {}
    for record in events:
        attrs = record.get("attrs") or {}
        t = attrs.get("t", record["time"])
        lanes.setdefault(record["name"], []).append(float(t))
    stats = span_aggregates(trace["spans"])

    fig, (ax_events, ax_spans) = plt.subplots(
        2, 1, figsize=(10, 6),
        gridspec_kw={"height_ratios": [2, 1]},
    )
    if lanes:
        names = sorted(lanes)
        for lane, name in enumerate(names):
            ax_events.scatter(
                lanes[name], [lane] * len(lanes[name]), s=14, marker="|"
            )
        ax_events.set_yticks(range(len(names)))
        ax_events.set_yticklabels(names)
    ax_events.set_xlabel("simulation time (s)")
    ax_events.set_title("events")

    if stats:
        names = sorted(stats, key=lambda n: stats[n]["total"])
        ax_spans.barh(
            range(len(names)), [stats[n]["total"] for n in names]
        )
        ax_spans.set_yticks(range(len(names)))
        ax_spans.set_yticklabels(names)
    ax_spans.set_xlabel("total wall time (s)")
    ax_spans.set_title("spans")
    fig.tight_layout()
    fig.savefig(path, dpi=120)
    plt.close(fig)
    return path
