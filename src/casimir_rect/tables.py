"""Rectangular result tables with deterministic, streamed CSV and JSON output.

Numbers are rendered with 17 significant digits so that parsing the output
recovers every value bit-exactly; line endings are LF; JSON key order is
fixed.  Identical tables therefore serialize to identical bytes.

`emit_table` takes the columns and any iterable of rows and writes the text
to its sink in blocks of at most CHUNK_ROWS rows, so a caller can hand it a
generator over values it has already computed: a CSV table is never held as
one string, and its output stage holds one block, whatever the row count.
JSON rows become one list first (the json module cannot encode a generator),
so a JSON table holds its values, but not the document as one string.
The json module is imported by the JSON branch only, so a CSV table never
loads it.
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass, field
from io import StringIO
from itertools import chain, islice

__all__ = ["FunctionTable", "render_value", "render_csv", "render_json", "emit_table",
           "CHUNK_ROWS"]

# rows per sink write: with an unbuffered sink every write is a system call
CHUNK_ROWS = 256


@dataclass
class FunctionTable:
    """Named columns plus rows of cells (floats, ints, strings, or None).

    rows may be any iterable of rows for a table that is only emitted, such
    as a generator over computed values; add_row needs the list.
    """

    columns: list[str]
    rows: Iterable = field(default_factory=list)

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
    out = StringIO()
    emit_table(table.columns, table.rows, "csv", out)
    return out.getvalue()


def render_json(table: FunctionTable, meta: dict) -> str:
    out = StringIO()
    emit_table(table.columns, table.rows, "json", out, meta)
    return out.getvalue()


def _write_blocks(sink, pieces, size: int) -> None:
    """Write the strings of pieces to sink, joined in blocks of size pieces."""
    pieces = iter(pieces)
    while block := list(islice(pieces, size)):
        sink.write("".join(block))


def emit_table(columns, rows, format: str, sink, meta: dict | None = None) -> None:
    """Write the table of columns and an iterable of rows to a file-like sink.

    CSV is a header line and one line per row; JSON is
    json.dumps({"columns": ..., "rows": ..., "meta": ...}, indent=2) + "\\n".
    Either way each write is one block of CHUNK_ROWS rows (a JSON block need
    not start at a row).
    """
    if format == "json":
        import json

        payload = {"columns": columns, "rows": list(rows), "meta": meta or {}}
        # the pieces json.dumps joins; with indent set a row of scalars is the
        # separator ahead of it, one piece per cell and two that close it
        pieces = json.JSONEncoder(indent=2).iterencode(payload)
        _write_blocks(sink, chain(pieces, ["\n"]), CHUNK_ROWS * (len(columns) + 3))
    elif format == "csv":
        lines = (",".join(map(render_value, row)) + "\n" for row in chain([columns], rows))
        _write_blocks(sink, lines, CHUNK_ROWS)
    else:
        raise ValueError(f"unknown format {format!r}")
