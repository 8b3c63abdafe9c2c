"""Plain-text table formatting for experiment outputs.

Every experiment runner returns structured data and renders it through
these helpers so benchmark logs read like the paper's tables.
"""

from __future__ import annotations

from typing import Iterable, Sequence


def format_table(headers: Sequence[str], rows: Iterable[Sequence[object]],
                 title: str = "") -> str:
    """Monospace table with per-column width fitting."""
    str_rows = [[_cell(value) for value in row] for row in rows]
    widths = [len(h) for h in headers]
    for row in str_rows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    lines = []
    if title:
        lines.append(title)
    lines.append("  ".join(h.ljust(widths[i]) for i, h in enumerate(headers)))
    lines.append("  ".join("-" * w for w in widths))
    for row in str_rows:
        lines.append("  ".join(cell.ljust(widths[i]) for i, cell in enumerate(row)))
    return "\n".join(lines)


def _cell(value: object) -> str:
    if isinstance(value, float):
        return f"{value:.3f}"
    return str(value)


def event_counter_report(totals: dict,
                         title: str = "Event counters") -> str:
    """Render an ``{event: {component: count}}`` table (EventTrace output).

    Accepts either one run's :meth:`EventTrace.counter_snapshot` or the
    engine's accumulated ``event_totals`` across a batch.
    """
    rows = [(kind, component, count)
            for kind, per_component in sorted(totals.items())
            for component, count in sorted(per_component.items())]
    if not rows:
        return f"{title}: (no events recorded)"
    return format_table(["event", "component", "count"], rows, title=title)


def format_percent(value: float) -> str:
    """Format a fraction as a percentage with one decimal."""
    return f"{value * 100:.1f}%"
