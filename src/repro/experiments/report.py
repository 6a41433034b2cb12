"""Plain-text tables, CSV output, and campaign status rendering.

Ownership: this module owns **presentation only** -- turning row dicts
(figure rows, validation rows, campaign status rows) into aligned text
tables or CSV. It holds no experiment logic and reads nothing from
disk; ``render_status`` formats the progress dict that
:func:`repro.experiments.farm.farm_status` computes from a store
directory (``repro campaign status``).
"""

from __future__ import annotations

import io
from typing import List, Optional, Sequence


def _fmt(value: object) -> str:
    if value is None:
        return "-"
    if isinstance(value, float):
        return f"{value:.4g}"
    return str(value)


def format_table(rows: Sequence[dict], title: Optional[str] = None) -> str:
    """Render rows (dicts sharing keys) as an aligned text table."""
    if not rows:
        return (title + "\n" if title else "") + "(no data)"
    columns: List[str] = []
    for row in rows:
        for key in row:
            if key not in columns:
                columns.append(key)
    cells = [[_fmt(row.get(c)) for c in columns] for row in rows]
    widths = [
        max(len(columns[i]), *(len(r[i]) for r in cells)) for i in range(len(columns))
    ]
    out = io.StringIO()
    if title:
        out.write(title + "\n")
    header = "  ".join(c.ljust(w) for c, w in zip(columns, widths))
    out.write(header + "\n")
    out.write("-" * len(header) + "\n")
    for row in cells:
        out.write("  ".join(v.ljust(w) for v, w in zip(row, widths)) + "\n")
    return out.getvalue()


def rows_to_csv(rows: Sequence[dict]) -> str:
    """Render rows as CSV (header from union of keys, insertion order)."""
    if not rows:
        return ""
    columns: List[str] = []
    for row in rows:
        for key in row:
            if key not in columns:
                columns.append(key)
    out = io.StringIO()
    out.write(",".join(columns) + "\n")
    for row in rows:
        out.write(",".join(_fmt(row.get(c)) for c in columns) + "\n")
    return out.getvalue()


def render_status(status: dict, title: Optional[str] = None) -> str:
    """Render a ``farm_status()`` dict: per-(protocol, scenario)
    table plus a one-line total (percentages only when the store has a
    manifest to define the full matrix)."""
    out = io.StringIO()
    if status.get("rows"):
        out.write(format_table(status["rows"], title=title))
    elif title:
        out.write(title + "\n(no points stored)\n")
    done, failed, stale = status["done"], status["failed"], status["stale"]
    if status["total"] is not None:
        pct = 100.0 * done / status["total"] if status["total"] else 100.0
        out.write(f"{done}/{status['total']} points done ({pct:.0f}%), "
                  f"{failed} failed, {stale} stale, "
                  f"{status['missing']} missing\n")
    else:
        out.write(f"{done} points done, {failed} failed (no manifest: "
                  f"totals unknown)\n")
    return out.getvalue()
