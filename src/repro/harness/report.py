"""Paper-style text rendering of experiment results.

Every benchmark prints the same rows/series the paper's table or figure
shows, via these helpers, so `pytest benchmarks/ --benchmark-only -s`
reads like the evaluation section.
"""

from __future__ import annotations

from typing import Dict, List, Sequence


def render_table(title: str, headers: Sequence[str],
                 rows: Sequence[Sequence[str]]) -> str:
    """A fixed-width table with a title rule."""
    columns = len(headers)
    widths = [len(h) for h in headers]
    for row in rows:
        for i in range(columns):
            widths[i] = max(widths[i], len(str(row[i])))
    lines = ["", f"== {title} =="]
    lines.append("  ".join(str(h).ljust(widths[i])
                           for i, h in enumerate(headers)))
    lines.append("  ".join("-" * widths[i] for i in range(columns)))
    for row in rows:
        lines.append("  ".join(str(cell).ljust(widths[i])
                               for i, cell in enumerate(row)))
    return "\n".join(lines)


def render_breakdown(title: str, fractions: Dict[str, float],
                     paper: Dict[str, float] = None) -> str:
    """Phase-share table, optionally against the paper's numbers."""
    headers = ["phase", "measured"]
    if paper:
        headers.append("paper")
    rows = []
    for phase, fraction in fractions.items():
        row = [phase, f"{fraction * 100:5.1f}%"]
        if paper:
            row.append(f"{paper.get(phase, 0) * 100:5.1f}%"
                       if phase in paper else "-")
        rows.append(row)
    return render_table(title, headers, rows)


def render_series(title: str, x_label: str, series: Dict[str, List],
                  x_values: List, fmt=str) -> str:
    """Multi-line series (one column per named line), Fig.-10 style."""
    headers = [x_label] + list(series)
    rows = []
    for i, x in enumerate(x_values):
        rows.append([x] + [fmt(series[name][i]) for name in series])
    return render_table(title, headers, rows)


def render_metrics(title: str, snapshot: Dict[str, Dict]) -> str:
    """A metrics-registry snapshot as a table (one row per instrument).

    Counters show their value, gauges value/max, histograms
    count/mean/p50/p99 — enough to read a run's health at a glance; the
    full snapshot stays available as JSON for machines.
    """
    rows = []
    for name in sorted(snapshot):
        data = dict(snapshot[name])
        kind = data.pop("type", "?")
        if kind == "counter":
            detail = f"value={data['value']}"
        elif kind == "gauge":
            detail = f"value={data['value']} max={data['max']}"
        elif kind == "histogram":
            detail = (f"count={data['count']} mean={data['mean']:.0f} "
                      f"p50={data['p50']} p99={data['p99']}")
        else:
            detail = repr(data)
        rows.append([name, kind, detail])
    return render_table(title, ["metric", "type", "detail"], rows)
