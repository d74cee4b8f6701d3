"""Plain-text table rendering shared by the experiment modules.

Deliberately dependency-free: the harness prints the same rows the paper's
tables contain, aligned, with a ``paper`` column next to each ``ours``
column where the paper published a number.
"""

from __future__ import annotations

from typing import Iterable, Sequence

__all__ = ["format_table", "print_table", "ratio"]


def format_table(
    headers: Sequence[str],
    rows: Iterable[Sequence[object]],
    *,
    title: str | None = None,
) -> str:
    """Fixed-width table with a rule under the header."""
    str_rows = [[_cell(c) for c in row] for row in rows]
    widths = [len(h) for h in headers]
    for row in str_rows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    lines = []
    if title:
        lines.append(title)
    lines.append("  ".join(h.ljust(w) for h, w in zip(headers, widths)))
    lines.append("  ".join("-" * w for w in widths))
    for row in str_rows:
        lines.append("  ".join(c.ljust(w) for c, w in zip(row, widths)))
    return "\n".join(lines)


def print_table(headers, rows, *, title=None) -> None:
    print(format_table(headers, rows, title=title))
    print()


def _cell(value: object) -> str:
    if isinstance(value, float):
        return f"{value:.1f}"
    return str(value)
