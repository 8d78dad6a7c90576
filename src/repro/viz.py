"""Terminal visualization helpers.

ASCII bar charts and utilization timelines for the examples and
benchmark reports — the closest a terminal gets to the paper's figures.
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


def grouped_bar_chart(
    groups: Dict[str, Dict[str, float]],
    width: int = 40,
    unit: str = "",
    title: str = "",
) -> str:
    """Bar chart with one sub-bar per series inside each group
    (Figure 13/15-style model x system comparisons)."""
    if not groups:
        raise ValueError("no groups to chart")
    peak = max(v for series in groups.values() for v in series.values())
    if peak <= 0:
        raise ValueError("values must contain a positive entry")
    series_names = list(next(iter(groups.values())))
    label_width = max(len(s) for s in series_names)
    lines = [title] if title else []
    for group, series in groups.items():
        lines.append(f"{group}:")
        for name in series_names:
            value = series.get(name, 0.0)
            bar = "#" * max(0, round(width * value / peak))
            lines.append(
                f"  {name.ljust(label_width)} |{bar.ljust(width)}| "
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


def utilization_timeline(
    trace: PipelineTrace, stage: int, bins: int = 60
) -> str:
    """Busy/idle timeline of one stage, binned into characters.

    ``#`` = fully busy bin, ``.`` = fully idle, intermediate shades for
    partial bins.
    """
    if trace.makespan <= 0:
        return "(empty trace)"
    shades = ".:-=+*#"
    bin_width = trace.makespan / bins
    busy = [0.0] * bins
    for record in trace.stage_records(stage):
        lo = record.start
        while lo < record.end - 1e-12:
            index = min(bins - 1, int(lo / bin_width))
            hi = min(record.end, (index + 1) * bin_width)
            busy[index] += hi - lo
            lo = hi
    chars = []
    for amount in busy:
        fraction = min(1.0, amount / bin_width)
        chars.append(shades[round(fraction * (len(shades) - 1))])
    return f"s{stage} |" + "".join(chars) + "|"


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
