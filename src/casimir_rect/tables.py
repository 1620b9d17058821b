"""Rectangular result tables with deterministic CSV and JSON rendering.

Numbers are rendered with 17 significant digits so that parsing the output
recovers every value bit-exactly; line endings are LF; JSON key order is
fixed.  Identical tables therefore serialize to identical bytes.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

__all__ = ["FunctionTable", "render_value", "render_csv", "render_json", "emit_table"]


@dataclass
class FunctionTable:
    """Named columns plus rows of cells (floats, ints, strings, or None)."""

    columns: list[str]
    rows: list[list] = field(default_factory=list)

    def add_row(self, *cells) -> None:
        if len(cells) != len(self.columns):
            raise ValueError("row length does not match column count")
        self.rows.append(list(cells))


def render_value(v) -> str:
    """Round-trip rendering: float(render_value(x)) == x for finite floats."""
    if v is None:
        return ""
    if isinstance(v, float):
        return format(v, ".17g")
    return str(v)


def render_csv(table: FunctionTable) -> str:
    lines = [",".join(table.columns)]
    for row in table.rows:
        lines.append(",".join(render_value(v) for v in row))
    return "\n".join(lines) + "\n"


def render_json(table: FunctionTable, meta: dict) -> str:
    payload = {"columns": table.columns, "rows": table.rows, "meta": meta}
    return json.dumps(payload, indent=2, sort_keys=False) + "\n"


def emit_table(table: FunctionTable, format: str, sink, meta: dict | None = None) -> None:
    """Write the rendered table to a file-like sink."""
    if format == "json":
        sink.write(render_json(table, meta or {}))
    elif format == "csv":
        sink.write(render_csv(table))
    else:
        raise ValueError(f"unknown format {format!r}")
