"""Text renderers for the paper's tables and figure data.

The benchmark harness prints the same rows/series the paper reports; these
helpers keep the output format consistent across benches and examples.
"""

from __future__ import annotations

from typing import Iterable, Sequence

__all__ = ["render_table", "fmt_time"]


def fmt_time(seconds: float) -> str:
    """Human-scaled time formatting for report rows."""
    if seconds >= 1.0:
        return f"{seconds:.3f} s"
    if seconds >= 1e-3:
        return f"{seconds * 1e3:.2f} ms"
    return f"{seconds * 1e6:.1f} us"


def render_table(
    title: str,
    headers: Sequence[str],
    rows: Iterable[Sequence[object]],
) -> str:
    """Monospace table with a title rule, sized to its content."""
    str_rows = [[str(c) for c in row] for row in rows]
    widths = [len(h) for h in headers]
    for row in str_rows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    sep = "-+-".join("-" * w for w in widths)
    lines = [title, "=" * len(title)]
    lines.append(" | ".join(h.ljust(w) for h, w in zip(headers, widths)))
    lines.append(sep)
    for row in str_rows:
        lines.append(" | ".join(c.ljust(w) for c, w in zip(row, widths)))
    return "\n".join(lines)
